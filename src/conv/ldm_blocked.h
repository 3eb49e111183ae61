#pragma once
// Functional execution of the paper's LDM-blocked convolution
// algorithms on the mesh simulator.
//
// Algorithm 1 (image-size-aware): tiles the batch (bB) and the output
// columns (bCo); for each output tile it walks the filter window,
// DMA-gets the matching input pixels and one filter slice, and runs the
// mesh GEMM; output leaves LDM once per tile. Best when No alone cannot
// amortize the filter traffic and bCo*bB must help (Eq. 1).
//
// Algorithm 2 (batch-size-aware): streams input pixel columns (all
// channels, all batches at once) and accumulates each pixel into every
// output column it overlaps, reusing the pixel across the Kc filter
// columns; the full batch amortizes traffic (Eq. 2). Best for large B.
//
// Both use the Fig. 3 mesh data distribution: nothing is duplicated
// across CPEs, remote operands travel over the register-communication
// buses only. Tensors are canonical: input [Ri][Ci][Ni][B], filter
// [Kr][Kc][Ni][No], output [Ro][Co][No][B].
//
// These kernels are the library's ground-truth-checked level-1 fidelity
// path (see DESIGN.md §5); paper-scale shapes go through the
// performance model instead.

#include <stdexcept>

#include "src/conv/shape.h"
#include "src/perf/plan.h"
#include "src/sim/executor.h"
#include "src/tensor/tensor.h"

namespace swdnn::conv {

/// A shape/plan pair the mesh kernels cannot run: a divisibility rule
/// broken, a stride the paper's kernels do not implement, or no
/// mesh-executable candidate at all. Derives from std::invalid_argument
/// so existing catch sites keep working, but lets drivers distinguish
/// "this shape has no mesh mapping — take the host route" from a real
/// execution bug that must surface.
class MeshMappingError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Throws MeshMappingError unless the shape/plan divide cleanly over a
/// `mesh_dim` x `mesh_dim` mesh: Ni, No, and the batch tile (block_b
/// for the image plan, B for the batch plan) must be multiples of
/// mesh_dim, batch a multiple of block_b (image plan), and Co a
/// multiple of block_co. The filter-grained mapping (multigrain.h)
/// skips the divisibility rules — its tiles are ceil-divided — and is
/// refused only for strides != 1 or when its tile set overflows LDM.
void check_mesh_compatibility(const ConvShape& shape,
                              const perf::ConvPlan& plan, int mesh_dim);

/// Algorithm 1 on the simulator. Computes output rows [ro_begin,
/// ro_end) — the multi-CG path passes each core group its row
/// partition; the defaults cover the whole image.
sim::LaunchStats run_image_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin = 0,
                                      std::int64_t ro_end = -1);

/// Algorithm 1 operating directly on the Section V-C image-size-aware
/// layout: input and output are (4, C, R, N, B/4) tensors (row-major
/// [B/4][N][R][C][4]), the filter stays canonical. Functionally
/// identical to run_image_size_aware on the transformed tensors; what
/// changes is the DMA pattern — contiguous runs grow from bB/8 doubles
/// to bCo*4 doubles, which is the entire point of the layout (compare
/// LaunchStats.dma.requests between the two). Additionally requires
/// block_b to be a multiple of 4*mesh_dim so every CPE owns whole
/// batch quads.
sim::LaunchStats run_image_size_aware_vectorized(
    sim::MeshExecutor& exec, const tensor::Tensor& input_vec,
    const tensor::Tensor& filter, tensor::Tensor& output_vec,
    const ConvShape& shape, const perf::ConvPlan& plan,
    std::int64_t ro_begin = 0, std::int64_t ro_end = -1);

/// Algorithm 2 on the simulator (same conventions).
sim::LaunchStats run_batch_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin = 0,
                                      std::int64_t ro_end = -1);

}  // namespace swdnn::conv
