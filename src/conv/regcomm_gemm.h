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
// into a pooled payload that all its receivers read in place, each
// taking it under one lock of its transfer buffer (the fast path);
// kVec4Reference loops over the scalar 256-bit primitives exactly as
// the original implementation did, and is kept as the oracle the
// equivalence tests compare against.

#include <span>

#include "src/conv/gemm.h"
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

/// Receives `buffer.size()` doubles from the caller's row transfer
/// buffer and returns them: on kBulkSpan where the broadcast left them
/// when they lie in one payload (CpeContext::recv_row_span), otherwise
/// unpacked into `buffer`.
[[nodiscard]] std::span<const double> bus_recv_row(
    sim::CpeContext& ctx, std::span<double> buffer,
    BusPathMode mode = BusPathMode::kBulkSpan);

/// Column-bus variants.
void bus_broadcast_col(sim::CpeContext& ctx, std::span<const double> data,
                       BusPathMode mode = BusPathMode::kBulkSpan);
[[nodiscard]] std::span<const double> bus_recv_col(
    sim::CpeContext& ctx, std::span<double> buffer,
    BusPathMode mode = BusPathMode::kBulkSpan);

/// One full mesh contraction: Do(i,j) += sum_t W(i,t)*Di(t,j).
///
/// Local tile layouts (row-major):
///   w_local  [k_tile][m_tile]  — input-channel-major, as the filter
///                                tensor [..][Ni][No] DMAs in naturally;
///   di_local [k_tile][n_tile];
///   do_local [m_tile][n_tile].
/// w_recv / di_recv are the LDM receive tiles, of the same sizes as
/// w_local / di_local; on kBulkSpan the local tile reads each received
/// tile in place, so they are written only by the Vec4 reference loop.
/// The call contains mesh-wide barriers: every CPE of the mesh must
/// call it the same number of times (SPMD lockstep).
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

/// Local tile update used by each mesh step: do[m][n] += sum_k
/// w[k][m]*di[k][n], charging the FMA flops to the context. It runs the
/// host GEMM's register tile (gemm_tile, at leading dimensions m_tile,
/// n_tile and n_tile), so every instantiation is bitwise
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
