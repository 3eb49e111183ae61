// Data-parallel training across simulated TaihuLight nodes: synchronous
// SGD with averaged gradients on the flat topology (one CG per node,
// priced as a ring all-reduce), plus the communication budget a real
// deployment would pay — the "scaling the training process" story the
// paper's introduction opens with.
//
// Usage: data_parallel_training [--nodes=4] [--steps=30]

#include <cstdio>
#include <exception>
#include <memory>

#include "src/conv/swconv.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/parallel/hierarchical.h"
#include "src/util/cli.h"
#include "src/util/table.h"

namespace dnn = swdnn::dnn;
namespace parallel = swdnn::parallel;

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  const int nodes = static_cast<int>(args.get_int("nodes", 4));
  const int steps = static_cast<int>(args.get_int("steps", 30));
  const std::int64_t shard_batch = 8;

  std::printf("synchronous SGD across %d simulated nodes, shard batch "
              "%lld (global %lld)\n\n",
              nodes, static_cast<long long>(shard_batch),
              static_cast<long long>(shard_batch * nodes));

  auto make_replica = [shard_batch] {
    swdnn::util::Rng rng(404);  // every replica identical
    auto net = std::make_unique<dnn::Network>();
    net->emplace<dnn::Convolution>(
        swdnn::conv::ConvShape::from_output(shard_batch, 1, 4, 6, 6, 3, 3),
        rng);
    net->emplace<dnn::Relu>();
    net->emplace<dnn::MaxPooling>(2);
    net->emplace<dnn::FullyConnected>(3 * 3 * 4, 4, rng);
    return net;
  };
  parallel::HierarchicalTrainer trainer(parallel::HierTopology::grid(nodes, 1),
                                        make_replica, 0.2, 0.9);

  dnn::SyntheticBars data(8, 4, 0.05, 23);
  double last_loss = 0;
  std::int64_t correct = 0, samples = 0;
  for (int step = 1; step <= steps; ++step) {
    std::vector<dnn::Batch> shards;
    for (int node = 0; node < nodes; ++node) {
      shards.push_back(data.sample(shard_batch));
    }
    const auto result = trainer.train_step(shards);
    last_loss = result.loss;
    correct += result.correct;
    samples += shard_batch * nodes;
  }
  std::printf("after %d steps: loss %.4f, running accuracy %.2f, replica "
              "divergence %.1e (must be ~0)\n\n",
              steps, last_loss,
              static_cast<double>(correct) / static_cast<double>(samples),
              trainer.max_replica_divergence());

  // Communication budget at paper scale: a VGG-like model's gradients
  // all-reduced against one conv layer's compute per step.
  swdnn::conv::SwConvolution sw;
  const auto layer = swdnn::conv::ConvShape::from_output(128, 256, 256, 64,
                                                         64, 3, 3);
  const double model_gflops_chip = sw.estimate(layer).gflops_chip;
  const double step_seconds =
      static_cast<double>(layer.flops()) / (model_gflops_chip * 1e9);
  const std::int64_t vgg_gradient_bytes =
      static_cast<std::int64_t>(138e6) * 8;  // ~138M params, f64

  swdnn::util::TextTable table;
  table.set_header({"nodes", "allreduce ms", "compute ms/layer-step",
                    "parallel efficiency"});
  for (int n : {2, 4, 16, 64, 256}) {
    const double comm =
        parallel::ring_allreduce_seconds(vgg_gradient_bytes, n);
    table.add_row({std::to_string(n),
                   swdnn::util::fmt_double(comm * 1e3, 1),
                   swdnn::util::fmt_double(step_seconds * 1e3, 1),
                   swdnn::util::fmt_double(
                       100.0 * parallel::data_parallel_efficiency(
                                   step_seconds, vgg_gradient_bytes, n),
                       1) +
                       "%"});
  }
  std::printf("paper-scale budget (VGG-size gradients, one 256-channel "
              "conv layer per step):\n%s\n",
              table.render().c_str());
  std::printf("the ring's bandwidth term is node-count independent: once "
              "the gradient all-reduce costs more than a step's compute, "
              "adding nodes stops helping — the 'algorithmic "
              "difficulties' the paper's introduction refers to.\n");
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
