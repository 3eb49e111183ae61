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
// buses only. Callers pass canonical tensors: input [Ri][Ci][Ni][B],
// filter [Kr][Kc][Ni][No], output [Ro][Co][No][B]. Algorithm 1 stages
// the rows it touches into the Section V-C layout on the host (see
// run_image_size_aware); Algorithm 2 reads the canonical tensors.
//
// Every output is bitwise equal to conv::reference_forward. The
// simulator's LaunchStats are the library's measured clock (Table III's
// `meas`); the closed-form model in src/perf is the other one.

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
/// `mesh_dim` x `mesh_dim` mesh: Ni and No must be multiples of
/// mesh_dim, Co a multiple of block_co, and the batch tile must split
/// evenly — for the image plan block_b is a multiple of 4 * mesh_dim
/// (whole 256-bit batch quads per CPE) and batch a multiple of block_b;
/// for the batch plan B is a multiple of mesh_dim. The filter-grained
/// mapping (multigrain.h) skips the divisibility rules — its tiles are
/// ceil-divided — and is refused only for strides != 1 or when its tile
/// set overflows LDM.
void check_mesh_compatibility(const ConvShape& shape,
                              const perf::ConvPlan& plan, int mesh_dim);

/// Algorithm 1 on the simulator. Computes output rows [ro_begin,
/// ro_end) — the multi-CG path passes each core group its row
/// partition; the defaults cover the whole image.
///
/// The kernel runs on the Section V-C image-size-aware layout
/// ([B/4][N][R][C][4]): the host packs the input rows the launch reads
/// into it, each CPE DMAs one contiguous bCo*4-double run per (batch
/// quad, channel) straight into its mesh-GEMM tile, and the host
/// unpacks the output rows after the launch. The staging is host wall
/// time that no simulated clock charges, and it allocates two plain
/// buffers (no tensor::Tensor). After a launch that reports a failure
/// `output` is left untouched.
sim::LaunchStats run_image_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin = 0,
                                      std::int64_t ro_end = -1);

/// Algorithm 2 on the simulator (same conventions).
sim::LaunchStats run_batch_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin = 0,
                                      std::int64_t ro_end = -1);

/// The LaunchStats a fault-free run_image_size_aware or
/// run_batch_size_aware launch of `plan` (by its kind) over output rows
/// [ro_begin, ro_end) reports on `spec`'s mesh, computed without running
/// it from the requests and mesh GEMMs the kernel issues. Throws
/// MeshMappingError where the launch would.
sim::LaunchStats predict_ldm_blocked(const ConvShape& shape,
                                     const perf::ConvPlan& plan,
                                     const arch::Sw26010Spec& spec,
                                     std::int64_t ro_begin = 0,
                                     std::int64_t ro_end = -1);

}  // namespace swdnn::conv
