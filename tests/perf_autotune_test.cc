// Schedule autotuner: the tuned plan never scores below the baseline
// (the default schedule is in the search space, ties keep it), tuning
// varies schedule-only knobs and preserves ranking order, and
// SwConvolution::autotune_plan is idempotent and counter-neutral at the
// plan cache and orders the executable list by predicted launch time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/conv/swconv.h"
#include "src/perf/autotune.h"
#include "src/perf/chooser.h"

namespace swdnn::perf {
namespace {

conv::ConvShape paper_shape(std::int64_t ni, std::int64_t no,
                            std::int64_t k = 3) {
  return conv::ConvShape::from_output(128, ni, no, 64, 64, k, k);
}

TEST(Autotune, TunedPlanNeverScoresBelowBaseline) {
  PlanChooser chooser;
  ScheduleAutotuner tuner;
  for (std::int64_t ch = 64; ch <= 384; ch += 64) {
    const conv::ConvShape shape = paper_shape(ch, ch);
    const auto ranked = chooser.rank(shape);
    ASSERT_FALSE(ranked.empty());
    AutotuneReport report;
    const auto tuned = tuner.tune_ranked(shape, ranked, &report);
    ASSERT_EQ(tuned.size(), ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      EXPECT_GE(tuned[i].estimate.gflops_per_cg,
                ranked[i].estimate.gflops_per_cg)
          << "entry " << i << " of " << shape.to_string();
    }
    EXPECT_GE(report.speedup(), 1.0);
    EXPECT_GT(report.candidates_scored, 0u);
  }
}

TEST(Autotune, TuningIsScheduleOnlyAndPreservesOrder) {
  // Tuning may change register blocking and DMA promotion — the knobs
  // the functional kernels never read — but never the plan kind or the
  // LDM blocking (which DO steer functional tiling), and never the
  // position of an entry in the ranking.
  PlanChooser chooser;
  ScheduleAutotuner tuner;
  const conv::ConvShape shape = paper_shape(256, 256);
  const auto ranked = chooser.rank(shape);
  const auto tuned = tuner.tune_ranked(shape, ranked);
  ASSERT_EQ(tuned.size(), ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(tuned[i].plan.kind, ranked[i].plan.kind) << i;
    EXPECT_EQ(tuned[i].plan.block_b, ranked[i].plan.block_b) << i;
    EXPECT_EQ(tuned[i].plan.block_co, ranked[i].plan.block_co) << i;
    EXPECT_EQ(tuned[i].plan.block_ni, ranked[i].plan.block_ni) << i;
    EXPECT_TRUE(plan_feasible(shape, tuned[i].plan, arch::default_spec()))
        << tuned[i].plan.to_string();
  }
}

TEST(Autotune, TuneChoiceKeepsDefaultOnTies) {
  // A candidate must score STRICTLY better to displace the base plan,
  // so re-tuning an already-tuned winner is a fixed point.
  PlanChooser chooser;
  ScheduleAutotuner tuner;
  const conv::ConvShape shape = paper_shape(128, 128);
  const PlanChoice base = chooser.choose(shape);
  const PlanChoice tuned = tuner.tune_choice(shape, base);
  const PlanChoice retuned = tuner.tune_choice(shape, tuned);
  EXPECT_EQ(retuned.plan.rb_b, tuned.plan.rb_b);
  EXPECT_EQ(retuned.plan.rb_no, tuned.plan.rb_no);
  EXPECT_EQ(retuned.plan.promote_input_dma, tuned.plan.promote_input_dma);
  EXPECT_EQ(retuned.plan.promote_filter_dma, tuned.plan.promote_filter_dma);
  EXPECT_EQ(retuned.estimate.gflops_per_cg, tuned.estimate.gflops_per_cg);
}

TEST(Autotune, SwConvolutionInstallIsIdempotentAndCounterNeutral) {
  conv::SwConvolution sw;
  const conv::ConvShape shape = paper_shape(128, 128);

  const auto first = sw.autotune_plan(shape)[0];
  ASSERT_TRUE(first.has_value());
  EXPECT_GE(first->speedup(), 1.0);
  EXPECT_GT(first->candidates_scored, 0u);

  // Second tune of the same shape: no work, no report for either key.
  for (const auto& second : sw.autotune_plan(shape)) {
    EXPECT_FALSE(second.has_value());
  }

  // Tuning rides peek/warm/install only: the serve-time ledger is
  // untouched.
  const PlanCacheStats stats = sw.plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // The installed ranking actually serves the tuned winner.
  const auto served = sw.ranked_plans(shape);
  ASSERT_FALSE(served.entry->ranked.empty());
  EXPECT_EQ(served.entry->ranked.front().plan.rb_b, first->tuned_plan.rb_b);
  EXPECT_EQ(served.entry->ranked.front().plan.rb_no, first->tuned_plan.rb_no);
}

TEST(Autotune, TunedRankingKeepsExecutableIndicesValid) {
  // A mesh-executable shape: after tuning, `ranked` keeps its order and
  // the cached executable list is a permutation of the untuned one (the
  // same mesh-executable entries), fastest predicted launch first.
  conv::SwConvolution sw;
  const conv::ConvShape shape = conv::ConvShape::from_output(32, 8, 8, 8, 8,
                                                            3, 3);
  const auto before = sw.ranked_plans(shape);
  ASSERT_TRUE(before.entry->has_executable());
  const std::vector<std::size_t> exec_before = before.entry->executable;

  ASSERT_TRUE(sw.autotune_plan(shape)[0].has_value());

  const auto after = sw.ranked_plans(shape);
  EXPECT_TRUE(std::is_permutation(after.entry->executable.begin(),
                                  after.entry->executable.end(),
                                  exec_before.begin(), exec_before.end()));
  EXPECT_EQ(after.entry->executable.size(), exec_before.size());
  EXPECT_EQ(after.entry->ranked.size(), before.entry->ranked.size());
  for (std::size_t i = 0; i < after.entry->ranked.size(); ++i) {
    EXPECT_EQ(after.entry->ranked[i].plan.kind,
              before.entry->ranked[i].plan.kind)
        << i;
  }
  std::vector<double> predicted;
  for (const std::size_t idx : after.entry->executable) {
    const ConvPlan& plan = after.entry->ranked[idx].plan;
    predicted.push_back(conv::predict_launch(shape, plan, sw.spec())
                            .modeled_seconds(plan.double_buffer));
  }
  EXPECT_TRUE(std::is_sorted(predicted.begin(), predicted.end()));
  // plan_for still resolves, to the predicted fastest entry.
  EXPECT_EQ(sw.plan_for(shape, /*require_executable=*/true).plan.to_string(),
            after.entry->ranked[after.entry->executable[0]].plan.to_string());
}

}  // namespace
}  // namespace swdnn::perf
