#include "src/perf/chooser.h"

#include <algorithm>
#include <stdexcept>

namespace swdnn::perf {

PlanChooser::PlanChooser(const arch::Sw26010Spec& spec)
    : spec_(spec), model_(spec) {}

std::vector<PlanChoice> PlanChooser::rank(const conv::ConvShape& shape) const {
  std::vector<PlanChoice> choices;

  // The batch tile must give every CPE whole 256-bit batch vectors
  // (4 lanes x 8 mesh columns = 32), so bB starts at 32. DMA promotion
  // is not enumerated here: it trades LDM for bandwidth in ways the
  // paper's evaluated plans (Table III) do not use — the ablation bench
  // explores it explicitly.
  const std::int64_t bb_grid[] = {32, 64, 128};
  const std::int64_t bco_grid[] = {1, 2, 4, 8, 16, 32, 64};

  // Input-channel blocking candidates: the full depth first (what the
  // level-1 mesh kernels can execute), then the §IV fallback blockings
  // for problems whose filter tiles overflow LDM.
  std::vector<std::int64_t> bni_grid = {0};
  for (std::int64_t bni :
       {shape.ni / 2, shape.ni / 4, std::int64_t{256}, std::int64_t{128},
        std::int64_t{64}, std::int64_t{32}, std::int64_t{16},
        std::int64_t{8}}) {
    if (bni >= 8 && bni < shape.ni && shape.ni % bni == 0 && bni % 8 == 0 &&
        std::find(bni_grid.begin(), bni_grid.end(), bni) == bni_grid.end()) {
      bni_grid.push_back(bni);
    }
  }

  for (std::int64_t bni : bni_grid) {
    // Ni blocking is strictly a fallback: it shrinks the filter tile so
    // a reasonable plan fits when the unblocked depth overflows LDM,
    // but it is not allowed to compete with healthy unblocked plans
    // (the inner loop shortens, EE falls, and the model cannot see all
    // of the cost). "Healthy" = the best unblocked candidate reaches at
    // least a quarter of peak; below that, LDM pressure has crippled
    // the blocking and the fallback is worth its EE cost.
    if (bni != 0) {
      double best = 0;
      for (const auto& c : choices) {
        best = std::max(best, c.estimate.gflops_per_cg);
      }
      if (best >= 0.25 * spec_.peak_gflops_per_cg()) break;
    }

    // Image-size-aware candidates.
    for (std::int64_t bb : bb_grid) {
      if (bb > shape.batch || shape.batch % bb != 0) continue;
      for (std::int64_t bco : bco_grid) {
        if (bco > shape.co()) continue;
        ConvPlan plan;
        plan.kind = PlanKind::kImageSizeAware;
        plan.block_b = bb;
        plan.block_co = bco;
        plan.block_ni = bni;
        if (!plan_feasible(shape, plan, spec_)) continue;
        choices.push_back({plan, model_.estimate(shape, plan)});
      }
    }

    // Batch-size-aware candidates.
    for (std::int64_t bco : bco_grid) {
      if (bco > shape.co()) continue;
      ConvPlan plan;
      plan.kind = PlanKind::kBatchSizeAware;
      plan.block_co = bco;
      plan.block_ni = bni;
      if (!plan_feasible(shape, plan, spec_)) continue;
      choices.push_back({plan, model_.estimate(shape, plan)});
    }
  }

  // Multigrain candidates (MG3MConv's per-regime mapping). Enumerated
  // after the paper's plans so stable_sort keeps the incumbents ahead on
  // exact score ties; the new mapping must *win* a regime to lead the
  // ranking. The filter-grained lowering is scored at its derived
  // pixel block plus a few explicit blocks (smaller blocks lengthen the
  // LDM contraction chunk, larger ones amortize the filter re-read —
  // the crossover is shape-dependent).
  {
    const std::int64_t px_cap =
        ((conv_pixels(shape) + spec_.mesh_rows - 1) / spec_.mesh_rows) *
        spec_.mesh_rows;
    std::vector<std::int64_t> bpx_grid = {0};
    for (std::int64_t bpx : {std::int64_t{256}, std::int64_t{512},
                             std::int64_t{1024}}) {
      if (bpx < px_cap) bpx_grid.push_back(bpx);
    }
    // A half-panel variant rides along even on shapes too small for the
    // explicit grid: two same-family candidates with distinct blockings
    // give the fault ladder an in-family rescue plan (the ladder never
    // crosses mapping families, so a lone candidate would fall straight
    // through to the host after one fault).
    if (px_cap / 2 >= spec_.mesh_rows) bpx_grid.push_back(px_cap / 2);
    std::vector<std::int64_t> seen_blocks;
    for (std::int64_t bpx : bpx_grid) {
      ConvPlan plan;
      plan.kind = PlanKind::kFilterGrained;
      plan.block_px = bpx;
      if (!plan_feasible(shape, plan, spec_)) continue;
      // Distinct grid entries can clamp to the same effective block;
      // keep one candidate per resolved block.
      const std::int64_t resolved = filter_grained_block_px(shape, plan, spec_);
      if (std::find(seen_blocks.begin(), seen_blocks.end(), resolved) !=
          seen_blocks.end()) {
        continue;
      }
      seen_blocks.push_back(resolved);
      choices.push_back({plan, model_.estimate(shape, plan)});
    }
  }

  std::stable_sort(choices.begin(), choices.end(),
                   [](const PlanChoice& a, const PlanChoice& b) {
                     return a.estimate.gflops_per_cg > b.estimate.gflops_per_cg;
                   });
  return choices;
}

PlanChoice PlanChooser::choose(const conv::ConvShape& shape) const {
  auto ranked = rank(shape);
  if (ranked.empty()) {
    throw std::runtime_error("PlanChooser: no feasible plan for " +
                             shape.to_string());
  }
  return ranked.front();
}

}  // namespace swdnn::perf
