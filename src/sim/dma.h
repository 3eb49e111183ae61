#pragma once
// DMA engine model shared by one simulated core group.
//
// Functionally a DMA request is a (possibly strided) copy between a
// host-side "global memory" span and a CPE's LDM buffer. For timing, each
// request is charged cycles from the Table II effective-bandwidth curve
// based on its contiguous block size, alignment, and direction — this is
// the quantity the paper's performance model calls MBW(MEM->LDM).
//
// The engine itself only accounts; the data movement is performed by the
// caller (CpeContext) so the functional path stays a plain memcpy. All
// counters are atomics, so concurrent recorders need no lock.

#include <atomic>
#include <cstdint>

#include "src/arch/spec.h"
#include "src/perf/dma_table.h"

namespace swdnn::sim {

struct DmaTotals {
  std::uint64_t get_bytes = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t misaligned_requests = 0;

  bool operator==(const DmaTotals&) const = default;
};

/// Per-CPE accounting shard. Each CPE owns one exclusively during a
/// launch (plain fields, no atomics); the executor folds the shards
/// into the shared engine once per launch, so no transfer touches the
/// engine's atomics.
struct DmaShard {
  std::uint64_t get_bytes = 0;
  std::uint64_t put_bytes = 0;
  std::uint64_t requests = 0;
  std::uint64_t misaligned_requests = 0;
  std::uint64_t cycles = 0;

  void add(std::uint64_t bytes, perf::DmaDirection dir, bool aligned,
           std::uint64_t cost_cycles) {
    if (dir == perf::DmaDirection::kGet) {
      get_bytes += bytes;
    } else {
      put_bytes += bytes;
    }
    ++requests;
    if (!aligned) ++misaligned_requests;
    cycles += cost_cycles;
  }

  void reset() { *this = DmaShard{}; }
};

class DmaEngine {
 public:
  explicit DmaEngine(const arch::Sw26010Spec& spec) : spec_(spec) {}

  /// Records one request and returns its cost in CPE cycles. The block
  /// size determines effective bandwidth; the whole `bytes` payload is
  /// charged at that bandwidth. `aligned` reflects the 128 B rule.
  std::uint64_t record(std::uint64_t bytes, std::int64_t block_bytes,
                       perf::DmaDirection dir, bool aligned);

  /// Pure cost of one request in CPE cycles — same arithmetic as
  /// record(), no accumulation. The hot path charges costs into a
  /// per-CPE DmaShard and folds once per launch via add_shard().
  std::uint64_t cost(std::uint64_t bytes, std::int64_t block_bytes,
                     perf::DmaDirection dir, bool aligned) const {
    return request_cost(bytes, block_bytes, dir, aligned, spec_.cpe_clock_ghz);
  }

  /// cost() on a `clock_ghz` CPE, without an engine: the closed-form
  /// launch prediction prices its requests through this.
  static std::uint64_t request_cost(std::uint64_t bytes,
                                    std::int64_t block_bytes,
                                    perf::DmaDirection dir, bool aligned,
                                    double clock_ghz);

  /// Folds one CPE's launch shard into the shared totals.
  void add_shard(const DmaShard& shard);

  /// Zeroes every counter (launch-boundary reset of a persistent
  /// engine).
  void reset();

  /// Cycle cost of moving `bytes` at `bw_gbs` on a `clock_ghz` CPE,
  /// saturating instead of overflowing: a zero, negative, or NaN
  /// bandwidth (a corrupted table entry, a fault plan zeroing a link)
  /// yields kSaturatedCycles, and a finite cost too large for uint64_t
  /// clamps — never the UB of casting inf to an integer. Exposed for
  /// the unit tests.
  static std::uint64_t cost_cycles(std::uint64_t bytes, double bw_gbs,
                                   double clock_ghz);

  /// The defined "this transfer never completes" cost.
  static constexpr std::uint64_t kSaturatedCycles = UINT64_MAX;

  DmaTotals totals() const;

  /// Seconds the recorded traffic needs on one core group, assuming the
  /// per-CG DMA engine serializes across CPEs at the effective
  /// bandwidth (the Table II numbers are already per-CG aggregates).
  double modeled_seconds() const;

 private:
  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  std::atomic<std::uint64_t> get_bytes_{0};
  std::atomic<std::uint64_t> put_bytes_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> misaligned_{0};
  std::atomic<std::uint64_t> total_cycles_{0};
};

}  // namespace swdnn::sim
