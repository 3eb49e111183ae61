#include "src/perf/plan.h"

#include <algorithm>

#include "src/conv/mesh_gemm_driver.h"

namespace swdnn::perf {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::int64_t ldm_budget_doubles(const arch::Sw26010Spec& spec) {
  return static_cast<std::int64_t>(spec.ldm_bytes - spec.ldm_reserved_bytes) /
         8;
}

// The contraction chunk the filter-grained GEMM should keep per LDM
// pass to leave the pipeline simulator a long inner loop. Below this
// the derived pixel block falls back to whatever fits at k_t = 1.
constexpr std::int64_t kFilterGrainedMinKt = 8;

}  // namespace

const char* plan_kind_name(PlanKind kind) {
  // Exhaustive on purpose: adding a PlanKind must be a compile error
  // (-Wswitch/-Wreturn-type) here and in every switch that describes or
  // dispatches plans.
  switch (kind) {
    case PlanKind::kImageSizeAware:
      return "img";
    case PlanKind::kBatchSizeAware:
      return "batch";
    case PlanKind::kFilterGrained:
      return "fgrain";
  }
  return "?";
}

bool plan_kind_is_multigrain(PlanKind kind) {
  switch (kind) {
    case PlanKind::kImageSizeAware:
    case PlanKind::kBatchSizeAware:
      return false;
    case PlanKind::kFilterGrained:
      return true;
  }
  return false;
}

std::string ConvPlan::to_string() const {
  std::string s = plan_kind_name(kind);
  switch (kind) {
    case PlanKind::kImageSizeAware:
      s += "(bB=" + std::to_string(block_b) +
           ",bCo=" + std::to_string(block_co) + ")";
      break;
    case PlanKind::kBatchSizeAware:
      s += "(bCo=" + std::to_string(block_co) + ")";
      break;
    case PlanKind::kFilterGrained:
      s += "(bPx=" + std::to_string(block_px) + ")";
      break;
  }
  if (block_ni > 0) s += "-bNi" + std::to_string(block_ni);
  if (!use_register_comm) s += "-noregcomm";
  if (!double_buffer) s += "-nodb";
  if (!reordered_pipeline) s += "-noreorder";
  return s;
}

std::int64_t conv_pixels(const conv::ConvShape& shape) {
  return shape.ro() * shape.co() * shape.batch;
}

std::int64_t filter_grained_block_px(const conv::ConvShape& shape,
                                     const ConvPlan& plan,
                                     const arch::Sw26010Spec& spec) {
  const std::int64_t p = spec.mesh_rows;
  const std::int64_t m_t = ceil_div(shape.no, p);
  const std::int64_t budget = ldm_budget_doubles(spec);
  // The whole pixel extent rounded to the mesh: blocks past it only pad.
  const std::int64_t px_cap = ceil_div(conv_pixels(shape), p) * p;

  std::int64_t n_t = 0;
  if (plan.block_px > 0) {
    n_t = ceil_div(std::min(plan.block_px, px_cap), p);
  } else {
    // Derive the widest pixel block that still leaves the contraction a
    // k_t >= kFilterGrainedMinKt chunk (footprint per the mesh_gemm
    // driver: 2*k_t*(m_t+n_t) + m_t*n_t + n_t doubles); if even a
    // one-row chunk cannot carry a full-width block, take the widest
    // that fits at k_t = 1.
    const std::int64_t at_min_kt =
        (budget - 2 * kFilterGrainedMinKt * m_t) /
        (m_t + 1 + 2 * kFilterGrainedMinKt);
    const std::int64_t at_one = (budget - 2 * m_t) / (m_t + 3);
    n_t = at_min_kt >= 1 ? at_min_kt : at_one;
    n_t = std::min(n_t, ceil_div(px_cap, p));
  }
  if (n_t < 1) return 0;
  // The output tile plus writeback staging must fit even before any
  // contraction rows do (the driver refuses otherwise).
  if (m_t * n_t + n_t >= budget) return 0;
  return std::max<std::int64_t>(n_t * p, p);
}

std::int64_t filter_grained_k_chunk(const conv::ConvShape& shape,
                                    const ConvPlan& plan,
                                    const arch::Sw26010Spec& spec) {
  const std::int64_t bpx = filter_grained_block_px(shape, plan, spec);
  if (bpx <= 0) return 0;
  // The chunk the kernel will run. filter_grained_block_px already
  // refused a block whose output tile overflows LDM, so
  // mesh_gemm_default_k_chunk does not throw here.
  return conv::mesh_gemm_default_k_chunk(spec, shape.no,
                                         shape.kr * shape.kc * shape.ni, bpx);
}

std::int64_t ldm_bytes_required(const conv::ConvShape& shape,
                                const ConvPlan& plan,
                                const arch::Sw26010Spec& spec) {
  const std::int64_t ds = 8;
  const std::int64_t rows = spec.mesh_rows;
  const std::int64_t cols = spec.mesh_cols;

  if (plan.kind == PlanKind::kFilterGrained) {
    // The mesh_gemm driver's tile set at the plan's pixel block and the
    // chunk the driver will pick for it.
    const std::int64_t bpx = filter_grained_block_px(shape, plan, spec);
    const std::int64_t chunk = filter_grained_k_chunk(shape, plan, spec);
    if (bpx <= 0 || chunk <= 0) {
      // Infeasible: report a footprint plan_feasible must reject.
      return static_cast<std::int64_t>(spec.ldm_bytes) + 1;
    }
    const std::int64_t m_t = ceil_div(shape.no, rows);
    const std::int64_t n_t = ceil_div(bpx, rows);
    const std::int64_t k_t = ceil_div(chunk, rows);
    return ds * (2 * k_t * (m_t + n_t) + m_t * n_t + n_t);
  }

  // Per-CPE channel shares: bNi/8 input channels per mesh column, No/8
  // output channels per column of the filter distribution.
  const std::int64_t bni =
      plan.block_ni > 0 ? std::min(plan.block_ni, shape.ni) : shape.ni;
  const std::int64_t ni_share = ceil_div(bni, rows);
  const std::int64_t no_share = ceil_div(shape.no, cols);

  std::int64_t in_tile = 0, w_tile = 0, out_tile = 0;
  if (plan.kind == PlanKind::kImageSizeAware) {
    const std::int64_t b_share = ceil_div(plan.block_b, rows);
    // The input tile always carries the Kc-1 column halo: the sliding
    // window of line 6 of Algorithm 1 touches bCo+Kc-1 columns.
    const std::int64_t co_tile = plan.block_co + shape.kc - 1;
    in_tile = co_tile * ni_share * b_share;
    w_tile = ni_share * no_share;  // one (kc, kr) slice
    out_tile = plan.block_co * no_share * b_share;
  } else {  // batch-size-aware
    const std::int64_t b_share = ceil_div(shape.batch, rows);
    // One input pixel column of all channels/batches at a time.
    in_tile = ni_share * b_share;
    const std::int64_t w_slices = plan.promote_filter_dma ? shape.kc : 1;
    w_tile = ni_share * no_share * w_slices;
    out_tile = plan.block_co * no_share * b_share;
  }

  // Double buffering applies to the streamed operand tiles (input and
  // filter); the output tile is an accumulator, written back once per
  // step, so it has no second buffer.
  const std::int64_t buffers = plan.double_buffer ? 2 : 1;
  return ds * (buffers * (in_tile + w_tile) + out_tile);
}

bool plan_feasible(const conv::ConvShape& shape, const ConvPlan& plan,
                   const arch::Sw26010Spec& spec) {
  if (plan.kind == PlanKind::kFilterGrained) {
    // The filter-grained mapping derives its own tiling from the shape:
    // no bCo/bB knobs, and it contracts the full channel depth (bNi
    // blocking would change the summation grouping the mapping pins
    // down for bitwise identity).
    if (plan.block_ni != 0) return false;
    if (plan.block_px < 0) return false;
    if (filter_grained_k_chunk(shape, plan, spec) <= 0) return false;
  } else {
    if (plan.block_co <= 0 || plan.block_co > shape.co()) return false;
    if (plan.kind == PlanKind::kImageSizeAware) {
      if (plan.block_b <= 0 || plan.block_b > shape.batch) return false;
      if (shape.batch % plan.block_b != 0) return false;
    }
    if (plan.block_ni != 0) {
      if (plan.block_ni <= 0 || plan.block_ni > shape.ni ||
          shape.ni % plan.block_ni != 0) {
        return false;
      }
    }
  }
  if (plan.rb_b <= 0 || plan.rb_no <= 0) return false;
  if (plan.rb_b % 4 != 0) return false;  // rb_b/4 vectors of 4 lanes
  // Register budget: rb_b/4 image vectors + rb_no filter vectors +
  // (rb_b/4)*rb_no accumulators must fit the 32-entry vector file.
  const std::int64_t vregs =
      plan.rb_b / 4 + plan.rb_no + (plan.rb_b / 4) * plan.rb_no;
  if (vregs > 32) return false;
  return ldm_bytes_required(shape, plan, spec) <=
         static_cast<std::int64_t>(spec.ldm_bytes - spec.ldm_reserved_bytes);
}

}  // namespace swdnn::perf
