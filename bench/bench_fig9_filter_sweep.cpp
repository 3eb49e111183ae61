// Reproduces paper Fig. 9: double-precision convolution throughput for
// filter sizes 3x3 .. 21x21 (30 configurations), swDNN (the closed-form
// model of the chosen plan on the 4-CG chip) vs the modeled
// cuDNNv5-on-K40m baseline. B = 128, 64x64 output images.
//
// Shape to reproduce: swDNN holds its throughput as the filter grows
// (the mesh GEMM is filter-size agnostic) while the cuDNN baseline
// collapses — the speedup rises toward the paper's 9.75x extreme.

#include <algorithm>
#include <cstdio>

#include "src/conv/swconv.h"
#include "src/perf/k40m.h"
#include "src/util/table.h"
#include "workloads.h"

int main() {
  using swdnn::util::TextTable;
  using swdnn::util::fmt_double;
  using swdnn::util::fmt_speedup;

  swdnn::conv::SwConvolution sw;
  swdnn::perf::K40mCudnnModel k40;

  std::printf("=== Fig. 9: conv performance vs filter size "
              "(B=128, out 64x64) ===\n\n");

  // Per-family columns: best modeled Gflop/s per CG among
  // each mapping family's executable plans, exposing the filter-axis
  // crossover (the filter-grained GEMM overtakes the incumbents as K
  // grows; 0 = that family cannot map the shape).
  TextTable table;
  table.set_header({"#", "filter", "Ni", "No", "plan", "img", "batch",
                    "fgrain", "swDNN model Gflops", "cuDNN Gflops",
                    "speedup"});
  double lo = 1e30, hi = 0, max_sp = 0;
  int index = 0;
  for (const auto& shape : swdnn::bench::fig9_configs()) {
    ++index;
    const auto choice = sw.plan_for(shape);
    const auto fam = swdnn::bench::plan_family_bests(sw, shape);
    const double model_gflops = choice.estimate.gflops_chip;
    const double cud = k40.conv_gflops(shape);
    lo = std::min(lo, model_gflops);
    hi = std::max(hi, model_gflops);
    max_sp = std::max(max_sp, model_gflops / cud);
    table.add_row({std::to_string(index),
                   std::to_string(shape.kr) + "x" + std::to_string(shape.kc),
                   std::to_string(shape.ni), std::to_string(shape.no),
                   choice.plan.to_string(), fmt_double(fam.img, 0),
                   fmt_double(fam.batch, 0), fmt_double(fam.fgrain, 0),
                   fmt_double(model_gflops, 0), fmt_double(cud, 0),
                   fmt_speedup(model_gflops / cud)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("--- Summary ---\n");
  std::printf("swDNN model spread over filters : %.0f - %.0f Gflops "
              "(max/min = %.2f; the paper's series is likewise flat)\n",
              lo, hi, hi / lo);
  std::printf("largest speedup                : %.2fx (paper: 9.75x at "
              "large filters)\n",
              max_sp);
  return 0;
}
