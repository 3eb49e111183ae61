// Quickstart: run one convolution through the full swDNN stack.
//
//   1. describe the layer (paper Table I parameters),
//   2. let the performance model pick an execution plan,
//   3. execute it functionally on the simulated SW26010 mesh,
//   4. check the result against the naive reference,
//   5. print what the model predicts for the same layer at paper scale.
//
// Usage: quickstart [--mesh=2|4|8] [--batch=8]

#include <cstdio>
#include <exception>

#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

int main(int argc, char** argv) try {
  namespace conv = swdnn::conv;
  swdnn::util::CliArgs args(argc, argv);

  // A mesh you can afford to simulate functionally on a laptop.
  swdnn::arch::Sw26010Spec spec = swdnn::arch::default_spec();
  spec.mesh_rows = spec.mesh_cols = static_cast<int>(args.get_int("mesh", 4));

  const std::int64_t batch = args.get_int("batch", 8);
  const auto shape = conv::ConvShape::from_output(
      batch, /*ni=*/8, /*no=*/8, /*ro=*/6, /*co=*/6, /*kr=*/3, /*kc=*/3);
  std::printf("Layer: %s on a %dx%d simulated CPE mesh\n",
              shape.to_string().c_str(), spec.mesh_rows, spec.mesh_cols);

  // Fill input and filter with random data.
  swdnn::util::Rng rng(2024);
  auto input = conv::make_input(shape);
  auto filter = conv::make_filter(shape);
  rng.fill_uniform(input.data(), -1.0, 1.0);
  rng.fill_uniform(filter.data(), -1.0, 1.0);

  // Forward through swDNN: the chooser consults the performance model.
  conv::SwConvolution sw(spec);
  auto output = conv::make_output(shape);
  const conv::ForwardResult result = sw.forward(input, filter, output, shape);

  std::printf("Chosen plan: %s\n", result.choice.plan.to_string().c_str());
  std::printf("Executed %llu flops across %d CPEs; %llu bytes DMA, %llu "
              "bytes over register-communication buses\n",
              static_cast<unsigned long long>(result.stats.total_flops),
              spec.cpes_per_group(),
              static_cast<unsigned long long>(result.stats.dma.get_bytes +
                                              result.stats.dma.put_bytes),
              static_cast<unsigned long long>(result.stats.regcomm_bytes()));

  // Verify against the naive reference.
  auto expected = conv::make_output(shape);
  conv::reference_forward(input, filter, expected, shape);
  std::printf("max |diff| vs reference: %.3e %s\n",
              expected.max_abs_diff(output),
              expected.max_abs_diff(output) < 1e-10 ? "(OK)" : "(MISMATCH)");

  // What the model says about the same layer at paper scale (full
  // 8x8 mesh, B=128, 64x64 images).
  conv::SwConvolution paper_sw;
  const auto paper_shape =
      conv::ConvShape::from_output(128, 128, 128, 64, 64, 3, 3);
  const auto choice = paper_sw.plan_for(paper_shape);
  std::printf("\nAt paper scale (%s):\n", paper_shape.to_string().c_str());
  std::printf("  plan %s -> modeled %.0f Gflops/CG, %.0f Gflops/chip "
              "(%.0f%% of peak)\n",
              choice.plan.to_string().c_str(), choice.estimate.gflops_per_cg,
              choice.estimate.gflops_chip,
              100.0 * choice.estimate.gflops_chip /
                  paper_sw.spec().peak_gflops_per_chip());
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
