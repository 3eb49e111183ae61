#pragma once
// Compile-time schedule autotuning over the performance model.
//
// The chooser's grid fixes the register blocking at the paper's default
// (rb_b=16, rb_no=4) and leaves DMA promotion off; both knobs move the
// modeled throughput (Eq. 5 register-level bandwidth, Table II block
// sizes for the promoted streams) without changing what the functional
// kernels compute — the level-1 mesh kernels and the host GEMM never
// read them. The autotuner exploits exactly that: for each ranked plan
// of a shape it searches the schedule-only knobs
//     rb_b  in {8, 16, 32, 64}   (registers held per batch tile)
//     rb_no in {2, 4, 8}         (output channels per register tile)
//     promote_input_dma          (image plan: hoist the input get)
//     promote_filter_dma         (batch plan: hoist the filter get)
// keeping the plan's kind and LDM blocking fixed, scores every feasible
// variant with the closed-form model (the Interstellar move: schedule
// search over a loop-nest cost model), and keeps the best. Because the
// functional numerics only depend on kind + LDM blocking, a tuned plan
// is bitwise-identical in output to its base plan on every route — the
// eager-vs-compiled differential contract survives tuning untouched.
//
// The tuned ranking preserves the base ranking's order and therefore
// its mesh-executability index list: tuning upgrades each entry in
// place, it never reshuffles the ranking. (SwConvolution::autotune_plan
// then orders the executable list by predicted simulated time.)

#include <cstddef>
#include <optional>
#include <vector>

#include "src/perf/chooser.h"

namespace swdnn::perf {

/// What one shape's tuning run decided, for observability and benches.
struct AutotuneReport {
  conv::ConvShape shape;
  ConvPlan baseline_plan;      ///< base ranking's winner
  ConvPlan tuned_plan;         ///< winner after schedule search
  /// The plan the tuned key dispatches: the fastest mesh-executable
  /// entry by predicted launch time. Filled by
  /// conv::SwConvolution::autotune_plan; empty when no entry is
  /// mesh-executable (the host route) or when only tune_ranked ran.
  std::optional<ConvPlan> dispatched_plan;
  double baseline_gflops_per_cg = 0;
  double tuned_gflops_per_cg = 0;
  std::size_t candidates_scored = 0;

  /// Modeled tuned/baseline ratio; >= 1.0 by construction (the default
  /// schedule is in the search space and ties keep it).
  double speedup() const {
    return baseline_gflops_per_cg > 0
               ? tuned_gflops_per_cg / baseline_gflops_per_cg
               : 1.0;
  }
};

class ScheduleAutotuner {
 public:
  explicit ScheduleAutotuner(
      const arch::Sw26010Spec& spec = arch::default_spec());

  /// Best schedule-only variant of `base` for `shape` (base itself if
  /// nothing scores strictly better). `scored`, when non-null, is
  /// incremented per candidate evaluated.
  PlanChoice tune_choice(const conv::ConvShape& shape,
                         const PlanChoice& base,
                         std::size_t* scored = nullptr) const;

  /// Tunes every entry of a ranked list in place-order (entry i of the
  /// result is the tuned variant of entry i of the input; order is NOT
  /// re-sorted, so executability index lists stay valid). Fills
  /// `report` from the first entry when non-null.
  std::vector<PlanChoice> tune_ranked(const conv::ConvShape& shape,
                                      const std::vector<PlanChoice>& ranked,
                                      AutotuneReport* report = nullptr) const;

 private:
  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  PerformanceModel model_;
};

}  // namespace swdnn::perf
