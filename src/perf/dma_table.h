#pragma once
// Measured DMA bandwidths between main memory and LDM (paper Table II).
//
// The paper measured these with a micro-benchmark on one core group;
// they are the empirical backbone of the whole performance model: every
// MEM<->LDM transfer's cost is the transfer size divided by the
// effective bandwidth for its per-CPE contiguous block size. The table
// is non-monotonic in places (576 B dips below 512 B) — we keep the
// published sample points exactly and interpolate linearly between them.

#include <cstdint>
#include <vector>

namespace swdnn::perf {

enum class DmaDirection { kGet, kPut };  // Get: MEM->LDM, Put: LDM->MEM

struct DmaSample {
  std::int64_t block_bytes;
  double get_gbs;
  double put_gbs;
};

class DmaBandwidthTable {
 public:
  /// Constructs the published Table II curve.
  DmaBandwidthTable();

  /// Effective bandwidth (GB/s, per core group) for transfers whose
  /// per-CPE contiguous block is `block_bytes`: interpolated_gbs, read
  /// from a table filled at construction for blocks up to the last
  /// sample (4 KB) and computed beyond it. The simulator charges every
  /// DMA request through this.
  double bandwidth_gbs(std::int64_t block_bytes, DmaDirection dir,
                       bool aligned_128 = true) const;

  /// The Table II curve itself, evaluated on each call. Blocks below the
  /// first sample scale down from it; blocks above the last clamp to
  /// the last; in between the samples are interpolated linearly.
  /// Misaligned blocks (not a multiple of 128 B) are derated: the DDR3
  /// interface needs 128 B-aligned bursts for near-optimal bandwidth
  /// (Section III-D), so a misaligned block pays roughly one extra
  /// burst per block.
  double interpolated_gbs(std::int64_t block_bytes, DmaDirection dir,
                          bool aligned_128 = true) const;

  /// The raw published samples (for the Table II bench and tests).
  const std::vector<DmaSample>& samples() const { return samples_; }

  /// Peak bandwidth over the whole curve for a direction.
  double peak_gbs(DmaDirection dir) const;

 private:
  std::vector<DmaSample> samples_;
  /// interpolated_gbs for blocks 0..samples_.back().block_bytes, indexed
  /// [direction][aligned][block_bytes].
  std::vector<double> lookup_;
};

/// Shared immutable instance of the published table.
const DmaBandwidthTable& dma_table();

}  // namespace swdnn::perf
