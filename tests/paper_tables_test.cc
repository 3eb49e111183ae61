// End-to-end checks against the paper's published evaluation:
// Table III (model vs a simulated core group), the Figure 7 envelope
// (speedup range, swDNN stability), the Figure 9 trend (filter-size
// robustness), and the headline claims (>1.6 Tflops, >50% of peak).
// The Figure 7/9 swDNN series are the closed-form model of each shape's
// chosen plan on the 4-CG chip. Absolute tolerances are documented in
// EXPERIMENTS.md; the asserts here pin the *shape* of every result so a
// regression in any model component trips a test. Multi-CG scaling is
// measured on the simulator in conv_swconv_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/perf/k40m.h"

namespace swdnn {
namespace {

conv::ConvShape paper_shape(std::int64_t ni, std::int64_t no,
                            std::int64_t k = 3) {
  return conv::ConvShape::from_output(128, ni, no, 64, 64, k, k);
}

struct Table3Row {
  const char* plan;
  std::int64_t bb, bco, ni, no;
  double paper_rbw, paper_mbw, paper_mdl, paper_meas;
};

// Paper Table III, verbatim.
const Table3Row kTable3[] = {
    {"img", 32, 16, 128, 128, 29.0, 21.9, 368, 350},
    {"img", 32, 8, 128, 256, 23.2, 18.2, 397, 375},
    {"batch", 0, 8, 256, 256, 27.1, 21.2, 422, 410},
    {"batch", 0, 8, 128, 384, 25.7, 21.2, 407, 392},
};

perf::ConvPlan plan_for_row(const Table3Row& row) {
  perf::ConvPlan p;
  if (std::string(row.plan) == "img") {
    p.kind = perf::PlanKind::kImageSizeAware;
    p.block_b = row.bb;
    p.block_co = row.bco;
  } else {
    p.kind = perf::PlanKind::kBatchSizeAware;
    p.block_co = row.bco;
  }
  return p;
}

class Table3 : public ::testing::TestWithParam<int> {};

TEST_P(Table3, RbwMatchesPaperExactly) {
  const Table3Row& row = kTable3[GetParam()];
  perf::PerformanceModel model;
  const auto shape = paper_shape(row.ni, row.no);
  const auto plan = plan_for_row(row);
  const double rbw = plan.kind == perf::PlanKind::kImageSizeAware
                         ? model.rbw_image_plan(shape, plan)
                         : model.rbw_batch_plan(shape, plan);
  EXPECT_NEAR(rbw, row.paper_rbw, 0.1);
}

TEST_P(Table3, MbwWithinPublishedRange) {
  // The paper's in-kernel MBW sits in 18.2-21.9 GB/s; ours must land in
  // the same band (within the model's documented cap).
  const Table3Row& row = kTable3[GetParam()];
  perf::PerformanceModel model;
  const auto e = model.estimate(paper_shape(row.ni, row.no),
                                plan_for_row(row));
  EXPECT_GE(e.mbw_mem_gbs, 17.0);
  EXPECT_LE(e.mbw_mem_gbs, 22.0);
  EXPECT_NEAR(e.mbw_mem_gbs, row.paper_mbw, 4.0);
}

TEST_P(Table3, ModelWithinBandOfPaper) {
  const Table3Row& row = kTable3[GetParam()];
  perf::PerformanceModel model;
  const auto e = model.estimate(paper_shape(row.ni, row.no),
                                plan_for_row(row));
  // Row 2 deviates most (+47%): the paper measured MBW=18.2 there where
  // our Table II interpolation cannot go below its cap (EXPERIMENTS.md
  // discusses). Everything must be within +/-50% and rows 1/3/4 much
  // tighter.
  EXPECT_GT(e.gflops_per_cg, 0.5 * row.paper_mdl);
  EXPECT_LT(e.gflops_per_cg, 1.5 * row.paper_mdl);
}

// Table III's `meas`, simulated: GFLOP/s per CG of each row's plan on
// one core group over a B=128, one-row, 16-column slice of the paper
// shape (VectorizedConv.SliceCountsScaleToTheWholeLaunch ties a slice's
// counts to the whole launch's). Recorded from this simulator; the
// paper's silicon measured 350/375/410/392.
constexpr double kSimulatedMeas[] = {571.2, 605.3, 535.9, 553.1};

TEST_P(Table3, SimulatedMeasMatchesRecordAndBoundsModel) {
  const Table3Row& row = kTable3[GetParam()];
  const auto plan = plan_for_row(row);
  // Every count of a launch follows from shape and plan alone, so the
  // slice runs on zero tensors.
  const auto slice =
      conv::ConvShape::from_output(128, row.ni, row.no, 1, 16, 3, 3);
  const tensor::Tensor input = conv::make_input(slice);
  const tensor::Tensor filter = conv::make_filter(slice);
  tensor::Tensor output = conv::make_output(slice);
  conv::SwConvolution sw;
  const double sim = sw.forward(input, filter, output, slice, plan)
                         .stats.modeled_gflops(plan.double_buffer);
  const double recorded = kSimulatedMeas[GetParam()];
  EXPECT_NEAR(sim, recorded, 0.02 * recorded);
  // The simulator's clock never waits on a barrier, a bus or the DMA
  // engine, so it reads above the model; bound how far.
  const double mdl = sw.chooser()
                         .model()
                         .estimate(paper_shape(row.ni, row.no), plan)
                         .gflops_per_cg;
  EXPECT_GE(mdl / sim, 0.6);
  EXPECT_LE(mdl / sim, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Rows, Table3, ::testing::Values(0, 1, 2, 3));

TEST(Table3, RowsOneAndThreeAreTight) {
  // The two rows our MBW reproduces well must also match closely in
  // modeled throughput.
  perf::PerformanceModel model;
  const auto e1 =
      model.estimate(paper_shape(128, 128), plan_for_row(kTable3[0]));
  EXPECT_NEAR(e1.gflops_per_cg, 368, 20);
  const auto e3 =
      model.estimate(paper_shape(256, 256), plan_for_row(kTable3[2]));
  EXPECT_NEAR(e3.gflops_per_cg, 422, 20);
}

// --- Figure 7 envelope ---------------------------------------------------

std::vector<conv::ConvShape> fig7_grid() {
  std::vector<conv::ConvShape> shapes;
  for (std::int64_t ch = 64; ch <= 384; ch += 16) {
    shapes.push_back(paper_shape(ch, ch));
  }
  return shapes;
}

TEST(Fig7, SpeedupRangeMatchesPaperEnvelope) {
  // Paper: 1.91x - 9.75x over cuDNNv5 on K40m across >100 configs.
  conv::SwConvolution sw;
  perf::K40mCudnnModel k40;
  double lo = 1e30, hi = 0;
  for (const auto& shape : fig7_grid()) {
    const auto choice = sw.plan_for(shape);
    const double ours = choice.estimate.gflops_chip;
    const double sp = ours / k40.conv_gflops(shape);
    lo = std::min(lo, sp);
    hi = std::max(hi, sp);
  }
  EXPECT_GT(lo, 1.5);
  EXPECT_LT(lo, 2.6);
  EXPECT_GT(hi, 6.0);
  EXPECT_LT(hi, 12.0);
}

TEST(Fig7, SwdnnWinsEverywhere) {
  conv::SwConvolution sw;
  perf::K40mCudnnModel k40;
  for (const auto& shape : fig7_grid()) {
    const auto choice = sw.plan_for(shape);
    EXPECT_GT(choice.estimate.gflops_chip, k40.conv_gflops(shape))
        << shape.to_string();
  }
}

TEST(Fig7, SwdnnAbove1TflopsForMostConfigs) {
  // "In most cases, we see a convolution performance above 1.6 Tflops";
  // our model's band sits at 1.45-2.2T with a low tail at tiny channel
  // counts — require >=1.4T for at least 70% of the grid.
  conv::SwConvolution sw;
  int above = 0, total = 0;
  for (const auto& shape : fig7_grid()) {
    const auto choice = sw.plan_for(shape);
    if (choice.estimate.gflops_chip > 1400.0) ++above;
    ++total;
  }
  EXPECT_GE(above * 10, total * 7);
}

TEST(Fig7, SwdnnIsMoreStableThanCudnn) {
  // "not like cuDNN, our program is stable under different parameter
  // configurations": coefficient of variation of the swDNN series must
  // beat cuDNN's.
  conv::SwConvolution sw;
  perf::K40mCudnnModel k40;
  std::vector<double> ours, theirs;
  for (const auto& shape : fig7_grid()) {
    if (shape.ni < 96) continue;  // drop the small-channel warmup tail
    ours.push_back(sw.estimate(shape).gflops_chip);
    theirs.push_back(k40.conv_gflops(shape));
  }
  auto cv = [](const std::vector<double>& v) {
    double mean = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    double var = 0;
    for (double x : v) var += (x - mean) * (x - mean);
    return std::sqrt(var / static_cast<double>(v.size())) / mean;
  };
  EXPECT_LT(cv(ours), cv(theirs));
}

TEST(Fig7, EfficiencyExceedsHalfOfPeakAtTableConfigs) {
  // "we increase the computational efficiency from 40% to 54%" — at the
  // paper's best configurations the chip efficiency must exceed 50%.
  conv::SwConvolution sw;
  const auto& spec = arch::default_spec();
  int hits = 0;
  for (auto ch : {256L, 320L, 384L}) {
    const auto shape = paper_shape(ch, ch);
    const double eff =
        sw.estimate(shape).gflops_chip / spec.peak_gflops_per_chip();
    if (eff > 0.50) ++hits;
    EXPECT_GT(eff, 0.40);
  }
  EXPECT_GE(hits, 2);
}

// --- Figure 9 ------------------------------------------------------------

TEST(Fig9, SpeedupGrowsWithFilterSize) {
  conv::SwConvolution sw;
  perf::K40mCudnnModel k40;
  double prev = 0;
  for (std::int64_t k : {3, 9, 15, 21}) {
    const auto shape = paper_shape(256, 256, k);
    const double sp =
        sw.estimate(shape).gflops_chip / k40.conv_gflops(shape);
    EXPECT_GT(sp, prev) << "k=" << k;
    prev = sp;
  }
  // Largest filters approach the paper's 9.75x extreme.
  EXPECT_GT(prev, 8.0);
}

TEST(Fig9, SwdnnHoldsThroughputAcrossFilterSizes) {
  // The swDNN series stays flat while cuDNN collapses.
  conv::SwConvolution sw;
  double lo = 1e30, hi = 0;
  for (std::int64_t k = 3; k <= 21; k += 2) {
    const auto shape = paper_shape(256, 256, k);
    const double g = sw.estimate(shape).gflops_chip;
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT(hi / lo, 1.5);
  EXPECT_GT(lo, 1400.0);
}

// --- Headline ---------------------------------------------------------

TEST(Headline, DirectGloadMatchesFig2Strawman) {
  perf::PerformanceModel model;
  EXPECT_NEAR(model.direct_gload_gflops_per_cg() / 742.4, 0.0033, 3e-4);
}

}  // namespace
}  // namespace swdnn
