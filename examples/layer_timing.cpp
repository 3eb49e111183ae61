// Layer timing: estimate the per-layer and total conv time of a VGG-like
// network on one SW26010 — the workflow of someone porting a real model
// to the machine. Uses the plan chooser per layer and prints the
// network's conv-time budget as the closed-form model predicts it.
//
// Usage: layer_timing [--batch=128]

#include <cstdio>
#include <exception>

#include "src/conv/swconv.h"
#include "src/util/cli.h"
#include "src/util/table.h"

int main(int argc, char** argv) try {
  namespace conv = swdnn::conv;
  swdnn::util::CliArgs args(argc, argv);
  const std::int64_t batch = args.get_int("batch", 128);

  // A VGG-flavoured conv stack (channels x output size), double
  // precision as the paper evaluates. Output sizes chosen so every
  // layer maps onto the mesh (64-divisible channels).
  struct LayerSpec {
    const char* name;
    std::int64_t ni, no, out;
  };
  const LayerSpec layers[] = {
      {"conv1_1", 64, 64, 64},  {"conv1_2", 64, 64, 64},
      {"conv2_1", 64, 128, 32}, {"conv2_2", 128, 128, 32},
      {"conv3_1", 128, 256, 16}, {"conv3_2", 256, 256, 16},
      {"conv4_1", 256, 384, 8},  {"conv4_2", 384, 384, 8},
  };

  conv::SwConvolution sw;
  swdnn::util::TextTable table;
  table.set_header({"layer", "shape", "plan", "model Gflops/chip",
                    "model time (ms)", "Gflop"});
  double total_time = 0, total_flops = 0;
  for (const auto& l : layers) {
    const auto shape =
        conv::ConvShape::from_output(batch, l.ni, l.no, l.out, l.out, 3, 3);
    const auto choice = sw.plan_for(shape);
    const double model_gflops = choice.estimate.gflops_chip;
    const double seconds =
        static_cast<double>(shape.flops()) / (model_gflops * 1e9);
    total_time += seconds;
    total_flops += static_cast<double>(shape.flops());
    table.add_row({l.name,
                   std::to_string(l.ni) + "->" + std::to_string(l.no) + " @" +
                       std::to_string(l.out) + "x" + std::to_string(l.out),
                   choice.plan.to_string(),
                   swdnn::util::fmt_double(model_gflops, 0),
                   swdnn::util::fmt_double(seconds * 1e3, 2),
                   swdnn::util::fmt_double(
                       static_cast<double>(shape.flops()) / 1e9, 1)});
  }
  std::printf("VGG-like conv stack, batch %lld, double precision, one "
              "SW26010 (4 CGs):\n\n%s\n",
              static_cast<long long>(batch), table.render().c_str());
  std::printf("total: %.1f Gflop in %.2f ms -> %.0f Gflops sustained "
              "across the network\n",
              total_flops / 1e9, total_time * 1e3,
              total_flops / total_time / 1e9);
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
