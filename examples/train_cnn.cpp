// Train a small CNN end-to-end with the swDNN layer stack — the
// "training part" the paper positions swDNN for. The task is the
// synthetic oriented-bars classification problem; the network is
// conv -> relu -> maxpool -> fully-connected -> softmax cross-entropy,
// optimized with momentum SGD.
//
// Usage: train_cnn [--steps=80] [--batch=8] [--lr=0.2] [--classes=4]
//                  [--backend=host|mesh] [--eager=on]

#include <cstdio>
#include <exception>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/util/cli.h"

int main(int argc, char** argv) try {
  namespace dnn = swdnn::dnn;
  swdnn::util::CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 80));
  const std::int64_t batch = args.get_int("batch", 8);
  const int classes = static_cast<int>(args.get_int("classes", 4));
  const double lr = args.get_double("lr", 0.2);
  const auto backend = args.get("backend", "host") == "mesh"
                           ? dnn::ConvBackend::kSimulatedMesh
                           : dnn::ConvBackend::kHostIm2col;

  std::printf("Training a CNN on synthetic oriented bars: %d classes, "
              "batch %lld, %d steps, lr %.2f, conv backend: %s\n\n",
              classes, static_cast<long long>(batch), steps, lr,
              backend == dnn::ConvBackend::kSimulatedMesh ? "simulated mesh"
                                                          : "host im2col");

  swdnn::util::Rng rng(99);
  dnn::Network net;
  // 8x8x1 -> conv 3x3 (4 maps) -> 6x6x4 -> relu -> pool2 -> 3x3x4 -> fc.
  net.emplace<dnn::Convolution>(
      swdnn::conv::ConvShape::from_output(batch, 1, 4, 6, 6, 3, 3), rng,
      backend);
  net.emplace<dnn::Relu>();
  net.emplace<dnn::MaxPooling>(2);
  net.emplace<dnn::FullyConnected>(3 * 3 * 4, classes, rng);

  // Compile the execution graph for the training shape: shape-checked
  // once, activations/gradients packed into the workspace arena, plans
  // warmed. --eager keeps the layer-by-layer seed behaviour instead.
  if (args.get("eager", "off") != "on") {
    const dnn::CompiledStats& stats = net.compile({8, 8, 1, batch});
    std::printf("compiled: arena %lld B packed vs %lld B naive "
                "(%zu tensors)\n\n",
                static_cast<long long>(stats.arena_peak_bytes),
                static_cast<long long>(stats.arena_naive_bytes),
                stats.arena_slots);
  }

  dnn::Sgd opt(lr, 0.9);
  dnn::Trainer trainer(net, opt);
  dnn::SyntheticBars data(8, classes, 0.05, 7);

  const int report_every = std::max(1, steps / 8);
  double loss_acc = 0;
  std::int64_t correct = 0;
  for (int step = 1; step <= steps; ++step) {
    const dnn::Batch b = data.sample(batch);
    const dnn::LossResult r = trainer.train_step(b);
    loss_acc += r.loss;
    correct += r.correct;
    if (step % report_every == 0) {
      std::printf("step %4d  loss %.4f  running accuracy %.2f\n", step,
                  loss_acc / report_every,
                  static_cast<double>(correct) /
                      static_cast<double>(report_every * batch));
      loss_acc = 0;
      correct = 0;
    }
  }

  const double accuracy = trainer.evaluate(data, batch, 16);
  std::printf("\nheld-out accuracy: %.2f (chance: %.2f)\n", accuracy,
              1.0 / classes);
  return accuracy > 1.5 / classes ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
