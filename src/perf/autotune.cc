#include "src/perf/autotune.h"

namespace swdnn::perf {

ScheduleAutotuner::ScheduleAutotuner(const arch::Sw26010Spec& spec)
    : spec_(spec), model_(spec) {}

PlanChoice ScheduleAutotuner::tune_choice(const conv::ConvShape& shape,
                                          const PlanChoice& base,
                                          std::size_t* scored) const {
  static constexpr std::int64_t kRbB[] = {8, 16, 32, 64};
  static constexpr std::int64_t kRbNo[] = {2, 4, 8};

  PlanChoice best = base;
  for (const std::int64_t rb_b : kRbB) {
    for (const std::int64_t rb_no : kRbNo) {
      for (const bool promote : {false, true}) {
        ConvPlan candidate = base.plan;
        candidate.rb_b = rb_b;
        candidate.rb_no = rb_no;
        // Promotion is per-plan-family: the image plan hoists the input
        // get over Kc, the batch plan the filter get over cCi; the
        // direct strawman has neither.
        candidate.promote_input_dma = false;
        candidate.promote_filter_dma = false;
        if (promote) {
          bool promotable = false;
          switch (candidate.kind) {
            case PlanKind::kImageSizeAware:
              candidate.promote_input_dma = true;
              promotable = true;
              break;
            case PlanKind::kBatchSizeAware:
              candidate.promote_filter_dma = true;
              promotable = true;
              break;
            case PlanKind::kFilterGrained:
              // Nothing to promote: the filter-grained mapping derives
              // its DMA schedule from the shape. Its rb_b/rb_no
              // register schedule is still searched by the enclosing
              // loops.
              break;
          }
          if (!promotable) continue;  // identical to promote=false
        }
        if (!plan_feasible(shape, candidate, spec_)) continue;
        const PerfEstimate est = model_.estimate(shape, candidate);
        if (scored != nullptr) ++*scored;
        // Strictly-greater keeps the default schedule on ties, so the
        // tuned winner never scores below the baseline.
        if (est.gflops_per_cg > best.estimate.gflops_per_cg) {
          best.plan = candidate;
          best.estimate = est;
        }
      }
    }
  }
  return best;
}

std::vector<PlanChoice> ScheduleAutotuner::tune_ranked(
    const conv::ConvShape& shape, const std::vector<PlanChoice>& ranked,
    AutotuneReport* report) const {
  std::size_t scored = 0;
  std::vector<PlanChoice> tuned;
  tuned.reserve(ranked.size());
  for (const PlanChoice& base : ranked) {
    tuned.push_back(tune_choice(shape, base, &scored));
  }
  if (report != nullptr) {
    report->shape = shape;
    report->candidates_scored = scored;
    if (!ranked.empty()) {
      report->baseline_plan = ranked.front().plan;
      report->baseline_gflops_per_cg = ranked.front().estimate.gflops_per_cg;
      report->tuned_plan = tuned.front().plan;
      report->tuned_gflops_per_cg = tuned.front().estimate.gflops_per_cg;
    }
  }
  return tuned;
}

}  // namespace swdnn::perf
