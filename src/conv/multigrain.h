#pragma once
// The multi-grained convolution mapping (MG3MConv's insight applied to
// this library; DESIGN.md §16).
//
// The paper's two LDM-blocked algorithms (ldm_blocked.h) demand mesh-
// divisible channels and batch tiles; outside that band dispatch used
// to fall all the way back to the host GEMM. The filter-grained mapping
// closes the gap with a different grain of the same mesh GEMM: the
// im2col lowering executed on the mesh, one [Kr*Kc*Ni x No] filter
// matrix (the filter tensor's natural flattening) against pixel-column
// panels of the patch matrix, streamed through mesh_gemm in
// plan.block_px-wide passes. Any stride-1 shape maps while its tile set
// fits LDM; the contraction spans the whole Kr*Kc*Ni extent, so the
// inner pipeline stays long even when Ni is tiny. It pays the lowering
// traffic (the patch gather re-reads the input Kr*Kc times and stages
// the column matrix through memory).
//
// Bitwise contract: the mapping accumulates each output element's
// contributions in ascending (kr, kc, ni) order — the reference loop's
// order — so outputs are bitwise identical to reference_forward (and to
// the paper's two mappings), not merely close.

#include "src/conv/shape.h"
#include "src/perf/plan.h"
#include "src/sim/executor.h"
#include "src/tensor/tensor.h"

namespace swdnn::conv {

/// Filter-grained forward for output rows [ro_begin, ro_end) (defaults
/// cover the whole image). Issues ceil(pixels / block_px) mesh_gemm
/// launches; stats are summed over them. Stops at the first failed
/// launch and returns its stats (callers translate to LaunchFault).
sim::LaunchStats run_filter_grained(sim::MeshExecutor& exec,
                                    const tensor::Tensor& input,
                                    const tensor::Tensor& filter,
                                    tensor::Tensor& output,
                                    const ConvShape& shape,
                                    const perf::ConvPlan& plan,
                                    std::int64_t ro_begin = 0,
                                    std::int64_t ro_end = -1);

/// The summed LaunchStats of a fault-free run_filter_grained over
/// output rows [ro_begin, ro_end) on `spec`'s mesh, computed without a
/// launch: one predict_mesh_gemm per pixel pass, summed in launch order
/// as the kernel sums them. Throws MeshMappingError where the kernel
/// would.
sim::LaunchStats predict_filter_grained(const ConvShape& shape,
                                        const perf::ConvPlan& plan,
                                        const arch::Sw26010Spec& spec,
                                        std::int64_t ro_begin = 0,
                                        std::int64_t ro_end = -1);

}  // namespace swdnn::conv
