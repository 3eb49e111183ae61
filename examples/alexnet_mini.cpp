// A miniature AlexNet-era pipeline exercising the full layer set the
// library ships: same-padded + strided convolutions with bias, LRN,
// max pooling, dropout (train/eval mode), tanh head — trained on the
// synthetic bars task and evaluated in eval mode.
//
// Usage: alexnet_mini [--steps=60] [--batch=8]

#include <cstdio>
#include <exception>

#include "src/dnn/activations.h"
#include "src/dnn/convolution.h"
#include "src/dnn/dropout.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/lrn.h"
#include "src/dnn/network.h"
#include "src/dnn/padding.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/util/cli.h"

namespace dnn = swdnn::dnn;

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 60));
  const std::int64_t batch = args.get_int("batch", 8);
  const int classes = 4;

  swdnn::util::Rng rng(2017);  // the paper's year, why not
  dnn::Network net;
  // 12x12x1 input.
  net.emplace<dnn::ZeroPad2d>(0, 1, 0, 1);  // -> 13x13
  net.emplace<dnn::Convolution>(  // stride-2 5x5 conv on 13x13 -> 5x5x6
      swdnn::conv::ConvShape::from_output(batch, 1, 6, 5, 5, 5, 5, 2, 2),
      rng, dnn::ConvBackend::kHostIm2col, /*with_bias=*/true);
  net.emplace<dnn::Relu>();
  net.emplace<dnn::Lrn>(3, 1e-3, 0.75, 2.0);
  net.emplace<dnn::ZeroPad2d>(0, 1, 0, 1);  // -> 6x6
  net.emplace<dnn::MaxPooling>(2);          // -> 3x3x6
  net.emplace<dnn::Convolution>(            // 3x3 conv -> 1x1x12
      swdnn::conv::ConvShape::from_output(batch, 6, 12, 1, 1, 3, 3), rng,
      dnn::ConvBackend::kHostIm2col, true);
  net.emplace<dnn::Tanh>();
  net.emplace<dnn::Dropout>(0.25, 99);
  net.emplace<dnn::FullyConnected>(12, classes, rng);

  dnn::Sgd opt(0.1, 0.9);
  dnn::Trainer trainer(net, opt);
  dnn::SyntheticBars data(12, classes, 0.05, 3);

  std::printf("mini-AlexNet: pad/conv(s2,bias)/relu/LRN/pool/conv/tanh/"
              "dropout/fc, batch %lld\n\n",
              static_cast<long long>(batch));
  net.set_training(true);
  const int report = std::max(1, steps / 6);
  double loss_acc = 0;
  for (int step = 1; step <= steps; ++step) {
    const dnn::Batch b = data.sample(batch);
    loss_acc += trainer.train_step(b).loss;
    if (step % report == 0) {
      std::printf("step %4d  mean loss %.4f\n", step, loss_acc / report);
      loss_acc = 0;
    }
  }

  net.set_training(false);  // dropout off for evaluation
  const double accuracy = trainer.evaluate(data, batch, 16);
  std::printf("\neval-mode held-out accuracy: %.2f (chance %.2f)\n",
              accuracy, 1.0 / classes);
  return accuracy > 1.5 / classes ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
