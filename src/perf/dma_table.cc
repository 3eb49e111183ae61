#include "src/perf/dma_table.h"

#include <algorithm>
#include <cmath>

namespace swdnn::perf {

DmaBandwidthTable::DmaBandwidthTable() {
  // Paper Table II: Measured DMA Bandwidths (GB/s) on one core group.
  samples_ = {
      {32, 4.31, 2.56},     {64, 9.00, 9.20},     {128, 17.25, 18.83},
      {192, 17.94, 19.82},  {256, 22.44, 25.80},  {384, 22.88, 24.67},
      {512, 27.42, 30.34},  {576, 25.96, 28.91},  {640, 29.05, 32.00},
      {1024, 29.79, 33.44}, {2048, 31.32, 35.19}, {4096, 32.05, 36.01},
  };
  const std::int64_t last = samples_.back().block_bytes;
  lookup_.reserve(static_cast<std::size_t>(4 * (last + 1)));
  for (DmaDirection dir : {DmaDirection::kGet, DmaDirection::kPut}) {
    for (bool aligned : {false, true}) {
      for (std::int64_t b = 0; b <= last; ++b) {
        lookup_.push_back(interpolated_gbs(b, dir, aligned));
      }
    }
  }
}

double DmaBandwidthTable::bandwidth_gbs(std::int64_t block_bytes,
                                        DmaDirection dir,
                                        bool aligned_128) const {
  const std::int64_t last = samples_.back().block_bytes;
  if (block_bytes < 0 || block_bytes > last) {
    return interpolated_gbs(block_bytes, dir, aligned_128);
  }
  const std::int64_t row =
      (dir == DmaDirection::kGet ? 0 : 2) + (aligned_128 ? 1 : 0);
  return lookup_[static_cast<std::size_t>(row * (last + 1) + block_bytes)];
}

double DmaBandwidthTable::interpolated_gbs(std::int64_t block_bytes,
                                           DmaDirection dir,
                                           bool aligned_128) const {
  auto value = [dir](const DmaSample& s) {
    return dir == DmaDirection::kGet ? s.get_gbs : s.put_gbs;
  };

  double bw;
  if (block_bytes <= samples_.front().block_bytes) {
    // Sub-32 B blocks scale down proportionally: the DMA engine still
    // moves one minimum burst per block.
    const double frac =
        static_cast<double>(std::max<std::int64_t>(block_bytes, 1)) /
        static_cast<double>(samples_.front().block_bytes);
    bw = value(samples_.front()) * std::min(1.0, frac);
  } else if (block_bytes >= samples_.back().block_bytes) {
    bw = value(samples_.back());
  } else {
    auto hi = std::lower_bound(
        samples_.begin(), samples_.end(), block_bytes,
        [](const DmaSample& s, std::int64_t b) { return s.block_bytes < b; });
    auto lo = hi - 1;
    const double t = static_cast<double>(block_bytes - lo->block_bytes) /
                     static_cast<double>(hi->block_bytes - lo->block_bytes);
    bw = value(*lo) + t * (value(*hi) - value(*lo));
  }

  if (!aligned_128 && block_bytes > 0) {
    // A misaligned block touches ceil(block/128)+1 bursts instead of
    // ceil(block/128): derate by the useful fraction.
    const double bursts = std::ceil(static_cast<double>(block_bytes) / 128.0);
    bw *= bursts / (bursts + 1.0);
  }
  return bw;
}

double DmaBandwidthTable::peak_gbs(DmaDirection dir) const {
  double best = 0.0;
  for (const auto& s : samples_) {
    best = std::max(best, dir == DmaDirection::kGet ? s.get_gbs : s.put_gbs);
  }
  return best;
}

const DmaBandwidthTable& dma_table() {
  static const DmaBandwidthTable table;
  return table;
}

}  // namespace swdnn::perf
