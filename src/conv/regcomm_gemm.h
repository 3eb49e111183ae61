#pragma once
// Mesh-distributed GEMM over register communication (paper Fig. 3).
//
// The LDM-GEMM at the heart of both convolution algorithms contracts
// over the input channels Ni, which the mesh distributes: CPE(i,j) owns
//   W tile  W(i,j) — output-channel block i  x input-channel block j,
//   Di tile Di(i,j) — input-channel block i x pixel/batch block j,
//   Do tile Do(i,j) — output-channel block i x pixel/batch block j,
// with no element duplicated anywhere on the mesh. The contraction then
// needs remote data, fetched purely over the buses: at step t, the CPEs
// of column t broadcast their W tiles along their rows, and the CPEs of
// row t broadcast their Di tiles down their columns; every CPE
// accumulates Do(i,j) += W(i,t) * Di(t,j). After P steps each CPE holds
// its finished Do block — and the input/filter data crossed the memory
// interface exactly once.
//
// Two host-side implementations of the bus traffic exist, selected by
// BusPathMode. Both model the same machine: per-message fault polls,
// trace events, cycle charges, and message counts are identical, and
// tile payloads arrive bitwise equal. kBulkSpan packs each tile once
// into a pooled payload that all its receivers copy from, each under
// one lock of its transfer buffer (the fast path); kVec4Reference loops
// over the scalar 256-bit primitives exactly as the original
// implementation did, and is kept as the oracle the equivalence tests
// compare against.

#include <span>

#include "src/sim/executor.h"

namespace swdnn::conv {

/// Host-side strategy for moving tiles over the simulated buses.
/// Observationally equivalent by construction; see header comment.
enum class BusPathMode {
  kBulkSpan,       ///< whole-tile transfers, one shared payload (fast)
  kVec4Reference,  ///< per-Vec4 loop over put/get (legacy oracle)
};

/// Broadcasts `data` to every other CPE on the caller's row, as ceil(n/4)
/// 256-bit bus messages.
void bus_broadcast_row(sim::CpeContext& ctx, std::span<const double> data,
                       BusPathMode mode = BusPathMode::kBulkSpan);

/// Receives `out.size()` doubles from the caller's row transfer buffer.
void bus_recv_row(sim::CpeContext& ctx, std::span<double> out,
                  BusPathMode mode = BusPathMode::kBulkSpan);

/// Column-bus variants.
void bus_broadcast_col(sim::CpeContext& ctx, std::span<const double> data,
                       BusPathMode mode = BusPathMode::kBulkSpan);
void bus_recv_col(sim::CpeContext& ctx, std::span<double> out,
                  BusPathMode mode = BusPathMode::kBulkSpan);

/// One full mesh contraction: Do(i,j) += sum_t W(i,t)*Di(t,j).
///
/// Local tile layouts (row-major):
///   w_local  [k_tile][m_tile]  — input-channel-major, as the filter
///                                tensor [..][Ni][No] DMAs in naturally;
///   di_local [k_tile][n_tile];
///   do_local [m_tile][n_tile].
/// w_recv / di_recv are LDM scratch of the same sizes as w_local /
/// di_local. The call contains mesh-wide barriers: every CPE of the
/// mesh must call it the same number of times (SPMD lockstep).
void mesh_gemm_accumulate(sim::CpeContext& ctx,
                          std::span<const double> w_local,
                          std::span<const double> di_local,
                          std::span<double> do_local,
                          std::span<double> w_recv, std::span<double> di_recv,
                          int m_tile, int k_tile, int n_tile,
                          BusPathMode mode = BusPathMode::kBulkSpan);

/// Adds to `tally` what `calls` fault-free mesh_gemm_accumulate calls
/// with these tile sizes charge on the square mesh of `spec`: each
/// CPE's cycles (per step one broadcast or one receive on each bus,
/// then the local tile), the mesh's flops and its bus messages.
void tally_mesh_gemm_accumulate(sim::LaunchTally& tally,
                                const arch::Sw26010Spec& spec,
                                std::uint64_t calls, std::int64_t m_tile,
                                std::int64_t k_tile, std::int64_t n_tile);

/// The instruction sets the local tile kernel is built for.
enum class LocalGemmIsa {
  kVec2,  ///< 2-lane double vectors, any target (SSE2 on x86-64)
  kAvx2,  ///< 4-lane double vectors, compiled for AVX2 (x86 only)
};

/// Whether this CPU can run `isa`.
bool local_gemm_isa_supported(LocalGemmIsa isa);

/// The widest instantiation this CPU supports, picked once per process.
LocalGemmIsa local_gemm_isa();

/// Local tile update used by each mesh step: do[m][n] += sum_k
/// w[k][m]*di[k][n], charging the FMA flops to the context. One register
/// tile (Fig. 5, Eq. 5): 4 output rows x 2 vectors along n, then 4 rows
/// x 1 vector, then scalar columns, and the same for the last m % 4 rows
/// one at a time; vectors hold 2 doubles (kVec2) or 4 (kAvx2). The k
/// loop is innermost, and each out[m][n] still receives
/// out + w[0][m]*di[0][n] + w[1][m]*di[1][n] + ... in that order, each
/// term a rounded multiply followed by a rounded add: no FMA (the
/// library builds with -ffp-contract=off and the AVX2 instantiation's
/// target excludes FMA), so every instantiation is bitwise
/// local_gemm_accumulate_ref. `isa` must be supported by the CPU; tests
/// name it to run each instantiation.
void local_gemm_accumulate(sim::CpeContext& ctx, std::span<const double> w,
                           std::span<const double> di, std::span<double> out,
                           int m_tile, int k_tile, int n_tile,
                           LocalGemmIsa isa = local_gemm_isa());

/// The naive k->m->n loop, kept as the bitwise oracle for the register
/// tile.
void local_gemm_accumulate_ref(sim::CpeContext& ctx,
                               std::span<const double> w,
                               std::span<const double> di,
                               std::span<double> out, int m_tile, int k_tile,
                               int n_tile);

}  // namespace swdnn::conv
