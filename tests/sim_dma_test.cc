// The DMA engine and the Table II bandwidth curve behind it.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/perf/dma_table.h"
#include "src/sim/dma.h"

namespace swdnn::sim {
namespace {

using perf::DmaDirection;

TEST(DmaTable, PublishedSamplePointsAreExact) {
  const auto& t = perf::dma_table();
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(32, DmaDirection::kGet), 4.31);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(32, DmaDirection::kPut), 2.56);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(256, DmaDirection::kGet), 22.44);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(256, DmaDirection::kPut), 25.80);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(4096, DmaDirection::kGet), 32.05);
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(4096, DmaDirection::kPut), 36.01);
}

TEST(DmaTable, TwelveSamplesAsPublished) {
  EXPECT_EQ(perf::dma_table().samples().size(), 12u);
}

TEST(DmaTable, InterpolatesBetweenSamples) {
  const auto& t = perf::dma_table();
  const double mid = t.bandwidth_gbs(320, DmaDirection::kGet);
  EXPECT_GT(mid, 22.44);
  EXPECT_LT(mid, 22.88);
}

TEST(DmaTable, ClampsAboveLastSample) {
  const auto& t = perf::dma_table();
  EXPECT_DOUBLE_EQ(t.bandwidth_gbs(1 << 20, DmaDirection::kPut), 36.01);
}

TEST(DmaTable, TinyBlocksScaleDown) {
  const auto& t = perf::dma_table();
  EXPECT_LT(t.bandwidth_gbs(8, DmaDirection::kGet),
            t.bandwidth_gbs(32, DmaDirection::kGet));
  EXPECT_GT(t.bandwidth_gbs(8, DmaDirection::kGet), 0.0);
}

TEST(DmaTable, PreservesPublishedNonMonotonicity) {
  // 576 B dips below 512 B in the paper's measurement; keep it.
  const auto& t = perf::dma_table();
  EXPECT_LT(t.bandwidth_gbs(576, DmaDirection::kGet),
            t.bandwidth_gbs(512, DmaDirection::kGet));
}

TEST(DmaTable, MisalignmentDerates) {
  const auto& t = perf::dma_table();
  EXPECT_LT(t.bandwidth_gbs(257, DmaDirection::kGet, false),
            t.bandwidth_gbs(257, DmaDirection::kGet, true));
}

TEST(DmaTable, MisalignmentPenaltyShrinksWithBlockSize) {
  const auto& t = perf::dma_table();
  auto ratio = [&t](std::int64_t b) {
    return t.bandwidth_gbs(b, DmaDirection::kGet, false) /
           t.bandwidth_gbs(b, DmaDirection::kGet, true);
  };
  EXPECT_LT(ratio(96), ratio(2000));
}

TEST(DmaTable, LookupEqualsInterpolationBitwise) {
  // The per-request lookup must charge exactly what the curve says.
  const auto& t = perf::dma_table();
  for (DmaDirection dir : {DmaDirection::kGet, DmaDirection::kPut}) {
    for (bool aligned : {false, true}) {
      for (std::int64_t b = 1; b <= 4096; ++b) {
        ASSERT_EQ(t.bandwidth_gbs(b, dir, aligned),
                  t.interpolated_gbs(b, dir, aligned))
            << b << " B, " << (dir == DmaDirection::kGet ? "get" : "put")
            << (aligned ? ", aligned" : ", misaligned");
      }
    }
  }
  // Past the table both compute the curve.
  EXPECT_EQ(t.bandwidth_gbs(5000, DmaDirection::kGet, false),
            t.interpolated_gbs(5000, DmaDirection::kGet, false));
}

TEST(DmaTable, PeakMatchesPaperHeadline) {
  // "effective bandwidth for DMA load and store ranges from 4 GB/s to
  // 36 GB/s."
  EXPECT_NEAR(perf::dma_table().peak_gbs(DmaDirection::kPut), 36.01, 1e-9);
  EXPECT_NEAR(perf::dma_table().peak_gbs(DmaDirection::kGet), 32.05, 1e-9);
}

TEST(DmaEngine, AccountsBytesAndRequests) {
  const auto& spec = arch::default_spec();
  DmaEngine dma(spec);
  dma.record(1024, 1024, DmaDirection::kGet, true);
  dma.record(512, 512, DmaDirection::kPut, true);
  dma.record(100, 100, DmaDirection::kGet, false);
  const DmaTotals t = dma.totals();
  EXPECT_EQ(t.get_bytes, 1124u);
  EXPECT_EQ(t.put_bytes, 512u);
  EXPECT_EQ(t.requests, 3u);
  EXPECT_EQ(t.misaligned_requests, 1u);
}

TEST(DmaEngine, CyclesFollowBandwidth) {
  const auto& spec = arch::default_spec();
  DmaEngine dma(spec);
  // 29.79 GB/s at 1024 B blocks: 1 MB should take ~33.6 us.
  const std::uint64_t bytes = 1 << 20;
  dma.record(bytes, 1024, DmaDirection::kGet, true);
  EXPECT_NEAR(dma.modeled_seconds(), bytes / 29.79e9, 1e-7);
}

TEST(DmaEngine, SmallBlocksCostMoreTime) {
  const auto& spec = arch::default_spec();
  DmaEngine small(spec), big(spec);
  small.record(1 << 16, 64, DmaDirection::kGet, true);
  big.record(1 << 16, 4096, DmaDirection::kGet, true);
  EXPECT_GT(small.modeled_seconds(), big.modeled_seconds());
}

TEST(DmaEngine, ZeroBandwidthSaturatesInsteadOfUndefinedBehaviour) {
  // Regression: bytes / 0.0 produced inf, and casting inf to uint64_t
  // is UB. A zero-bandwidth edge (fault plan, corrupted table) must
  // yield the defined saturating cost.
  EXPECT_EQ(DmaEngine::cost_cycles(1024, 0.0, 1.45),
            DmaEngine::kSaturatedCycles);
  EXPECT_EQ(DmaEngine::cost_cycles(0, 0.0, 1.45),
            DmaEngine::kSaturatedCycles);
}

TEST(DmaEngine, NegativeAndNanBandwidthSaturate) {
  EXPECT_EQ(DmaEngine::cost_cycles(1024, -3.0, 1.45),
            DmaEngine::kSaturatedCycles);
  EXPECT_EQ(DmaEngine::cost_cycles(1024, std::nan(""), 1.45),
            DmaEngine::kSaturatedCycles);
}

TEST(DmaEngine, OverflowingCycleCountsClampToSaturation) {
  // A finite but astronomically slow transfer must clamp, not wrap.
  EXPECT_EQ(DmaEngine::cost_cycles(UINT64_MAX, 1e-12, 1000.0),
            DmaEngine::kSaturatedCycles);
}

TEST(DmaEngine, InfiniteBandwidthIsFree) {
  EXPECT_EQ(DmaEngine::cost_cycles(1 << 20,
                                   std::numeric_limits<double>::infinity(),
                                   1.45),
            0u);
}

TEST(DmaEngine, CostCyclesMatchesTheBandwidthFormula) {
  // 1 MB at 29.79 GB/s on a 1.45 GHz clock.
  const std::uint64_t bytes = 1 << 20;
  const std::uint64_t cycles = DmaEngine::cost_cycles(bytes, 29.79, 1.45);
  EXPECT_EQ(cycles, static_cast<std::uint64_t>(
                        std::ceil(bytes / 29.79 * 1.45)));
}

}  // namespace
}  // namespace swdnn::sim
