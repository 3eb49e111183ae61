#include "src/sim/noc.h"

#include <algorithm>
#include <stdexcept>

namespace swdnn::sim {

std::vector<RowPartition> partition_output_rows(std::int64_t total_rows,
                                                int num_parts) {
  if (num_parts <= 0 || total_rows <= 0) {
    throw std::invalid_argument("partition_output_rows: bad arguments");
  }
  std::vector<RowPartition> parts;
  parts.reserve(static_cast<std::size_t>(num_parts));
  const std::int64_t base = total_rows / num_parts;
  const std::int64_t rem = total_rows % num_parts;
  std::int64_t cursor = 0;
  for (int p = 0; p < num_parts; ++p) {
    const std::int64_t len = base + (p < rem ? 1 : 0);
    parts.push_back(RowPartition{cursor, cursor + len});
    cursor += len;
  }
  return parts;
}

double noc_allreduce_seconds(std::int64_t bytes, int cgs,
                             const NocInterconnectSpec& spec) {
  if (cgs <= 1) return 0.0;
  const double k = static_cast<double>(cgs);
  const double chunk_bytes = static_cast<double>(bytes) / k;
  const double steps = 2.0 * (k - 1.0);
  return steps * (chunk_bytes / (spec.link_bandwidth_gbs * 1e9) +
                  spec.hop_latency_us * 1e-6);
}

double MultiCgStats::modeled_seconds(bool overlap) const {
  double slowest = 0;
  for (const auto& s : per_cg) {
    slowest = std::max(slowest, s.modeled_seconds(overlap));
  }
  return slowest + launch_overhead_seconds;
}

std::uint64_t MultiCgStats::total_flops() const {
  std::uint64_t total = 0;
  for (const auto& s : per_cg) total += s.total_flops;
  return total;
}

double MultiCgStats::scaling_speedup(bool overlap) const {
  double serial = 0;
  for (const auto& s : per_cg) serial += s.modeled_seconds(overlap);
  const double parallel = modeled_seconds(overlap);
  return parallel > 0 ? serial / parallel : 0.0;
}

}  // namespace swdnn::sim
