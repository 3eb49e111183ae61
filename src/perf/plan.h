#pragma once
// Convolution execution plans (the knobs Sections IV-VI expose).
//
// A plan fixes: the mapping (how the convolution is laid onto the mesh
// GEMM), the LDM blocking sizes, the register blocking, and the
// optimization toggles (register communication, double buffering,
// reordered pipeline, DMA promotion). The performance model scores
// plans; the chooser picks the best feasible one; the functional
// kernels execute them.
//
// The mapping families (MG3MConv's insight, applied to this library):
//   * kImageSizeAware / kBatchSizeAware — the paper's Algorithm 1/2
//     loop transformations of the direct convolution. Strongest on the
//     well-provisioned evaluation band (B=128, channels >= 64, mesh-
//     divisible everything).
//   * kFilterGrained — im2col lowering run on the mesh: one GEMM of
//     the [Kr*Kc*Ni x No] filter matrix against pixel-column blocks of
//     the patch matrix. Any ragged dimension works (tiles are
//     ceil-divided and zero-padded) and the contraction runs over the
//     whole Kr*Kc*Ni extent, so the inner pipeline stays long even
//     when Ni alone is tiny. Pays for the lowering: the patch gather
//     reads the input Kr*Kc times and stages it through memory.

#include <cstdint>
#include <string>

#include "src/arch/spec.h"
#include "src/conv/shape.h"

namespace swdnn::perf {

enum class PlanKind {
  kImageSizeAware,  ///< Algorithm 1: block on Co and B
  kBatchSizeAware,  ///< Algorithm 2: stream pixels, amortize over B
  kFilterGrained,   ///< filters x im2col-pixels mesh GEMM (any shape)
};

const char* plan_kind_name(PlanKind kind);

/// True for the mapping added by the multi-grained family (useful for
/// benches and tests that compare "new mapping vs incumbent").
bool plan_kind_is_multigrain(PlanKind kind);

struct ConvPlan {
  PlanKind kind = PlanKind::kImageSizeAware;

  // LDM blocking (Section IV). block_b is bB (image plan only; the
  // batch plan streams the full batch). block_co is bCo for both plans
  // (the batch plan also tiles its output columns to fit LDM).
  std::int64_t block_b = 32;
  std::int64_t block_co = 16;

  // Input-channel blocking bNi (0 = the full Ni). "If LDM space is not
  // enough for large Ni or No, we still need to apply loop blocking on
  // these dimensions" (§IV) — without it no plan fits Ni=No=384. The
  // level-1 mesh kernels execute only unblocked-Ni plans; the model
  // handles both.
  std::int64_t block_ni = 0;

  // Pixel-column block of the filter-grained mapping: how many
  // flattened (ro, co, b) output pixels one mesh-GEMM pass covers
  // (0 = derive the largest LDM-feasible block). Larger blocks
  // amortize the filter re-read (1/bPx in the cost model) but shrink
  // the LDM contraction chunk and with it the inner-loop length.
  // An LDM-blocking knob like block_co: part of the plan's numeric
  // identity (it changes summation grouping). Ignored by the other
  // kinds.
  std::int64_t block_px = 0;

  // Register blocking (Section V-B / Eq. 5). rb_b batch elements
  // (rb_b/4 vectors) by rb_no output channels are held in registers.
  std::int64_t rb_b = 16;
  std::int64_t rb_no = 4;

  // Optimization toggles (each is an ablation axis).
  bool use_register_comm = true;   ///< Section V-A mesh data sharing
  bool double_buffer = true;       ///< overlap DMA with compute
  bool reordered_pipeline = true;  ///< Section VI instruction schedule
  bool promote_input_dma = false;  ///< Alg 1: hoist input get over Kc
  bool promote_filter_dma = false; ///< Alg 2: hoist filter get over cCi

  std::string to_string() const;
};

/// Flattened output-pixel extent Ro*Co*B — the n axis of the
/// filter-grained GEMM.
std::int64_t conv_pixels(const conv::ConvShape& shape);

/// The pixel-column block the filter-grained mapping will actually use:
/// plan.block_px clamped to the (mesh-rounded) pixel extent, or the
/// largest LDM-feasible block when plan.block_px == 0.
std::int64_t filter_grained_block_px(const conv::ConvShape& shape,
                                     const ConvPlan& plan,
                                     const arch::Sw26010Spec& spec);

/// The contraction chunk (rows of the Kr*Kc*Ni axis) one LDM pass of
/// the filter-grained GEMM streams, given the plan's pixel block. This
/// is the inner-loop extent the EE model sees for the mapping.
std::int64_t filter_grained_k_chunk(const conv::ConvShape& shape,
                                    const ConvPlan& plan,
                                    const arch::Sw26010Spec& spec);

/// Per-CPE LDM footprint in bytes for running `plan` on `shape` with the
/// paper's mesh data distribution (each CPE holds 1/64 of every tile:
/// Ni/8 input channels on its column, No/8 output channels, B/8 or bB/8
/// of the batch on its row). Double buffering doubles the streamed
/// tiles. Promotion enlarges the hoisted tile. The filter-grained
/// mapping uses ceil-divided tiles and the contraction chunk its mesh
/// GEMM driver will pick.
std::int64_t ldm_bytes_required(const conv::ConvShape& shape,
                                const ConvPlan& plan,
                                const arch::Sw26010Spec& spec);

/// True when the plan's tiles fit in the 64 KB LDM and its blocking
/// divides cleanly enough to execute (see implementation for the exact
/// divisibility rules).
bool plan_feasible(const conv::ConvShape& shape, const ConvPlan& plan,
                   const arch::Sw26010Spec& spec);

}  // namespace swdnn::perf
