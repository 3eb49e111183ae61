#pragma once
// General distributed GEMM on the simulated CPE mesh.
//
// The Fig. 3 contraction in regcomm_gemm.h works on tiles that a caller
// already placed in LDM; this driver is the host-facing entry point: it
// takes whole matrices in memory, tiles them over the mesh (padding
// ragged edges with zeros), streams over the contraction dimension in
// LDM-sized chunks with the same double-buffer discipline the
// convolution kernels use, and gathers the result. It is what the
// library's fully-connected layer and the backward-filter kernel run
// on — the "LDM-GEMM" the paper says both convolution algorithms reduce
// to.
//
// Operand convention matches the library's channel-major filter layout:
//   out[m][n] (+)= sum_k a[k][m] * b[k][n]
// i.e. A is stored contraction-major ("k x m"), as a filter slice
// arrives from memory, and B likewise ("k x n").

#include <cstdint>
#include <span>

#include "src/conv/regcomm_gemm.h"
#include "src/sim/executor.h"

namespace swdnn::conv {

struct MeshGemmOptions {
  bool accumulate = false;      ///< add into `out` instead of overwriting
  std::int64_t k_chunk = 0;     ///< contraction chunk per LDM pass;
                                ///< 0 = choose from the LDM budget
  BusPathMode bus_mode = BusPathMode::kBulkSpan;  ///< host bus strategy
};

/// Runs the distributed GEMM. Any m, k, n >= 1 work on any square mesh:
/// tiles are ceil-divided and zero-padded. Throws std::invalid_argument
/// if the tile set cannot fit LDM even at k_chunk = 1.
sim::LaunchStats mesh_gemm(sim::MeshExecutor& exec,
                           std::span<const double> a,  // [k][m]
                           std::span<const double> b,  // [k][n]
                           std::span<double> out,      // [m][n]
                           std::int64_t m, std::int64_t k, std::int64_t n,
                           const MeshGemmOptions& options = {});

/// The LaunchStats a fault-free mesh_gemm launch with these dimensions
/// and options reports on `spec`'s mesh, computed without running it:
/// each contraction row is loaded once per A column block and B column
/// block holding any in-bounds columns, and the ragged edges of the
/// ceil-divided tiles are the only other tile class. Throws where
/// mesh_gemm would.
sim::LaunchStats predict_mesh_gemm(const arch::Sw26010Spec& spec,
                                   std::int64_t m, std::int64_t k,
                                   std::int64_t n,
                                   const MeshGemmOptions& options = {});

/// The k-chunk the driver would pick for these dimensions on this
/// machine (exposed for tests and the plan explorer).
std::int64_t mesh_gemm_default_k_chunk(const arch::Sw26010Spec& spec,
                                       std::int64_t m, std::int64_t k,
                                       std::int64_t n);

}  // namespace swdnn::conv
