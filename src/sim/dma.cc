#include "src/sim/dma.h"

#include <cmath>

namespace swdnn::sim {

std::uint64_t DmaEngine::cost_cycles(std::uint64_t bytes, double bw_gbs,
                                     double clock_ghz) {
  // bytes / (GB/s) = ns; cycles = ns * GHz. The Table II bandwidth is a
  // per-core-group aggregate, so the cycles computed here represent the
  // engine-occupancy share of this request.
  if (!(bw_gbs > 0.0)) return kSaturatedCycles;  // also catches NaN
  const double cycles = std::ceil(static_cast<double>(bytes) / bw_gbs *
                                  clock_ghz);
  // Doubles at or above 2^64 (including +inf from clock/bytes extremes)
  // cannot be cast to uint64_t without UB.
  if (!(cycles < 18446744073709551616.0)) return kSaturatedCycles;
  return cycles < 0.0 ? 0 : static_cast<std::uint64_t>(cycles);
}

std::uint64_t DmaEngine::request_cost(std::uint64_t bytes,
                                      std::int64_t block_bytes,
                                      perf::DmaDirection dir, bool aligned,
                                      double clock_ghz) {
  const double bw_gbs = perf::dma_table().bandwidth_gbs(block_bytes, dir,
                                                        aligned);
  return cost_cycles(bytes, bw_gbs, clock_ghz);
}

void DmaEngine::add_shard(const DmaShard& shard) {
  get_bytes_.fetch_add(shard.get_bytes, std::memory_order_relaxed);
  put_bytes_.fetch_add(shard.put_bytes, std::memory_order_relaxed);
  requests_.fetch_add(shard.requests, std::memory_order_relaxed);
  misaligned_.fetch_add(shard.misaligned_requests, std::memory_order_relaxed);
  total_cycles_.fetch_add(shard.cycles, std::memory_order_relaxed);
}

void DmaEngine::reset() {
  get_bytes_.store(0, std::memory_order_relaxed);
  put_bytes_.store(0, std::memory_order_relaxed);
  requests_.store(0, std::memory_order_relaxed);
  misaligned_.store(0, std::memory_order_relaxed);
  total_cycles_.store(0, std::memory_order_relaxed);
}

std::uint64_t DmaEngine::record(std::uint64_t bytes, std::int64_t block_bytes,
                                perf::DmaDirection dir, bool aligned) {
  const std::uint64_t cycles = cost(bytes, block_bytes, dir, aligned);

  if (dir == perf::DmaDirection::kGet) {
    get_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  } else {
    put_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!aligned) misaligned_.fetch_add(1, std::memory_order_relaxed);
  total_cycles_.fetch_add(cycles, std::memory_order_relaxed);
  return cycles;
}

DmaTotals DmaEngine::totals() const {
  DmaTotals t;
  t.get_bytes = get_bytes_.load();
  t.put_bytes = put_bytes_.load();
  t.requests = requests_.load();
  t.misaligned_requests = misaligned_.load();
  return t;
}

double DmaEngine::modeled_seconds() const {
  return static_cast<double>(total_cycles_.load()) /
         (spec_.cpe_clock_ghz * 1e9);
}

}  // namespace swdnn::sim
