#pragma once
// Plan selection: "we adopt different loop scheduling and blocking
// strategies according to the performance model for different parameter
// configurations" (Section VII).
//
// The chooser enumerates feasible plans of three kinds — the image- and
// batch-size-aware loop transformations (Algorithms 1 and 2) and the
// filter-grained mesh GEMM — over a grid of LDM blocking sizes, scores
// each with the performance model, and ranks them best first. DMA
// promotion and register blocking stay at the plan defaults. Insight
// from Section IV drives the candidate grid: bB should keep DMA blocks
// >= 256 B and 128 B-aligned; bCo only matters for the image plan;
// large No lowers RBW for free.

#include <vector>

#include "src/perf/model.h"
#include "src/perf/plan.h"

namespace swdnn::perf {

struct PlanChoice {
  ConvPlan plan;
  PerfEstimate estimate;
};

class PlanChooser {
 public:
  explicit PlanChooser(const arch::Sw26010Spec& spec = arch::default_spec());

  /// Best feasible plan for the shape. Throws std::runtime_error if no
  /// candidate is feasible (cannot happen for valid shapes with batch
  /// divisible by 4 — the batch plan with bCo=1 always fits).
  PlanChoice choose(const conv::ConvShape& shape) const;

  /// All feasible candidates with their scores, best first (for the
  /// blocking-ablation bench and the plan-explorer example).
  std::vector<PlanChoice> rank(const conv::ConvShape& shape) const;

  const PerformanceModel& model() const { return model_; }

 private:
  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  PerformanceModel model_;
};

}  // namespace swdnn::perf
