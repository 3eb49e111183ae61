#include <gtest/gtest.h>

#include "src/sim/noc.h"

namespace swdnn::sim {
namespace {

TEST(Partition, CoversAllRowsExactlyOnce) {
  for (std::int64_t rows : {1, 3, 7, 64, 65, 100}) {
    for (int parts : {1, 2, 3, 4}) {
      if (rows < parts) continue;
      const auto p = partition_output_rows(rows, parts);
      ASSERT_EQ(p.size(), static_cast<std::size_t>(parts));
      std::int64_t cursor = 0;
      for (const auto& part : p) {
        EXPECT_EQ(part.begin, cursor);
        EXPECT_GT(part.rows(), 0);
        cursor = part.end;
      }
      EXPECT_EQ(cursor, rows);
    }
  }
}

TEST(Partition, NearEqualSplit) {
  const auto p = partition_output_rows(65, 4);
  EXPECT_EQ(p[0].rows(), 17);
  EXPECT_EQ(p[1].rows(), 16);
  EXPECT_EQ(p[3].rows(), 16);
}

TEST(Partition, RejectsBadArguments) {
  EXPECT_THROW(partition_output_rows(0, 4), std::invalid_argument);
  EXPECT_THROW(partition_output_rows(8, 0), std::invalid_argument);
}

TEST(MultiCgStats, ConcurrentModel) {
  MultiCgStats stats;
  stats.launch_overhead_seconds = 0.5;
  for (double c : {1.0, 2.0, 1.5, 1.8}) {
    LaunchStats s;
    s.compute_seconds = c;
    s.dma_seconds = 0.1;
    s.total_flops = 1'000'000'000ull;
    stats.per_cg.push_back(s);
  }
  EXPECT_DOUBLE_EQ(stats.modeled_seconds(), 2.5);  // slowest + overhead
  EXPECT_EQ(stats.total_flops(), 4'000'000'000ull);
  // Serial would be 6.3 + 0.5 overhead counted once in parallel time.
  EXPECT_NEAR(stats.scaling_speedup(), 6.3 / 2.5, 1e-12);
}

}  // namespace
}  // namespace swdnn::sim
