#pragma once
// The Figure 8 test-script workloads.
//
// The paper generates its evaluation configurations from three small
// scripts shown as Figure 8 (an image we cannot read exactly). The
// generators here are reconstructed from the facts the paper states:
//   * configs 1-21 come from the left script: Fig. 7's caption says
//     (Ni, No) ranges from (64, 64) to (384, 384) — 21 equal Ni=No
//     steps of 16;
//   * configs 22-101 come from the center script: 80 mixed (Ni, No)
//     combinations — an 8x10 grid with 32-channel steps;
//   * filter configs 1-30 come from the right script: Fig. 9 sweeps
//     3x3 .. 21x21 (10 odd sizes) at three channel settings.
// All with B = 128 and 64x64 output images, per the figure captions.
// EXPERIMENTS.md records this reconstruction.

#include <algorithm>
#include <vector>

#include "src/conv/shape.h"
#include "src/conv/swconv.h"

namespace swdnn::bench {

inline conv::ConvShape paper_shape(std::int64_t ni, std::int64_t no,
                                   std::int64_t k = 3) {
  return conv::ConvShape::from_output(128, ni, no, 64, 64, k, k);
}

/// Fig. 8 left script: configs 1-21, Ni = No in {64, 80, ..., 384}.
inline std::vector<conv::ConvShape> fig8_equal_channel_sweep() {
  std::vector<conv::ConvShape> shapes;
  for (std::int64_t ch = 64; ch <= 384; ch += 16) {
    shapes.push_back(paper_shape(ch, ch));
  }
  return shapes;
}

/// Fig. 8 center script: configs 22-101, 80 mixed (Ni, No) pairs.
inline std::vector<conv::ConvShape> fig8_mixed_channel_sweep() {
  std::vector<conv::ConvShape> shapes;
  for (std::int64_t ni = 64; ni <= 288; ni += 32) {      // 8 values
    for (std::int64_t no = 64; no <= 352; no += 32) {    // 10 values
      shapes.push_back(paper_shape(ni, no));
    }
  }
  return shapes;
}

/// All 101 Figure 7 configurations in paper order.
inline std::vector<conv::ConvShape> fig7_configs() {
  auto shapes = fig8_equal_channel_sweep();
  const auto mixed = fig8_mixed_channel_sweep();
  shapes.insert(shapes.end(), mixed.begin(), mixed.end());
  return shapes;
}

/// Best modeled Gflop/s per CG per mapping family among one shape's
/// *executable* ranked plans (0 = no executable plan of that family).
/// The figure benches print these next to the winner so per-shape
/// crossovers between mapping families are visible in the sweeps
/// themselves, not just in bench_multigrain.
struct PlanFamilyBests {
  double img = 0, batch = 0, fgrain = 0;
};

inline PlanFamilyBests plan_family_bests(conv::SwConvolution& sw,
                                         const conv::ConvShape& shape) {
  PlanFamilyBests out;
  const auto lookup = sw.ranked_plans(shape);
  for (std::size_t e : lookup.entry->executable) {
    const perf::PlanChoice& ch = lookup.entry->ranked[e];
    const double g = ch.estimate.gflops_per_cg;
    switch (ch.plan.kind) {
      case perf::PlanKind::kImageSizeAware:
        out.img = std::max(out.img, g);
        break;
      case perf::PlanKind::kBatchSizeAware:
        out.batch = std::max(out.batch, g);
        break;
      case perf::PlanKind::kFilterGrained:
        out.fgrain = std::max(out.fgrain, g);
        break;
    }
  }
  return out;
}

/// Fig. 8 right script: the 30 Figure 9 configurations — filter sizes
/// 3x3 .. 21x21 at three channel settings.
inline std::vector<conv::ConvShape> fig9_configs() {
  std::vector<conv::ConvShape> shapes;
  for (std::int64_t ch : {128, 256, 384}) {
    for (std::int64_t k = 3; k <= 21; k += 2) {
      shapes.push_back(paper_shape(ch, ch, k));
    }
  }
  return shapes;
}

}  // namespace swdnn::bench
