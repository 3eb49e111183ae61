// Checkpointed training: train, save, reload into a fresh network, and
// confirm the reloaded model picks up where the original stopped — the
// operational loop a multi-day supercomputer training run depends on.
//
// Usage: checkpoint_training [--steps=40] [--path=/tmp/swdnn_ckpt.bin]

#include <cstdio>
#include <exception>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/serialize.h"
#include "src/dnn/trainer.h"
#include "src/util/cli.h"

namespace dnn = swdnn::dnn;

namespace {
dnn::Network build(swdnn::util::Rng& rng, std::int64_t batch) {
  dnn::Network net;
  net.emplace<dnn::Convolution>(
      swdnn::conv::ConvShape::from_output(batch, 1, 4, 6, 6, 3, 3), rng,
      dnn::ConvBackend::kHostIm2col, /*with_bias=*/true);
  net.emplace<dnn::Relu>();
  net.emplace<dnn::MaxPooling>(2);
  net.emplace<dnn::FullyConnected>(3 * 3 * 4, 4, rng);
  return net;
}
}  // namespace

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 40));
  const std::int64_t batch = 8;
  const std::string path = args.get("path", "/tmp/swdnn_ckpt.bin");

  swdnn::util::Rng rng(31);
  dnn::Network net = build(rng, batch);
  dnn::Sgd opt(0.2, 0.9);
  dnn::Trainer trainer(net, opt);
  dnn::SyntheticBars data(8, 4, 0.05, 17);

  std::printf("phase 1: training %d steps...\n", steps);
  const dnn::EpochStats phase1 = trainer.train_epoch(data, batch, steps);
  const double acc1 = trainer.evaluate(data, batch, 12);
  std::printf("  loss %.4f, held-out accuracy %.2f\n", phase1.mean_loss,
              acc1);

  std::printf("checkpointing to %s...\n", path.c_str());
  dnn::save_parameters(net, path);

  std::printf("phase 2: fresh process simulation — new network, load "
              "checkpoint...\n");
  swdnn::util::Rng rng2(777);  // different init, will be overwritten
  dnn::Network resumed = build(rng2, batch);
  dnn::SyntheticBars eval_data(8, 4, 0.05, 17);
  dnn::Sgd opt2(0.2, 0.9);
  dnn::Trainer trainer2(resumed, opt2);
  const double cold_acc = trainer2.evaluate(eval_data, batch, 12);
  dnn::load_parameters(resumed, path);
  const double warm_acc = trainer2.evaluate(eval_data, batch, 12);
  std::printf("  accuracy before load %.2f -> after load %.2f\n", cold_acc,
              warm_acc);

  std::printf("phase 3: resume training %d more steps...\n", steps / 2);
  const dnn::EpochStats phase3 =
      trainer2.train_epoch(eval_data, batch, steps / 2);
  const double final_acc = trainer2.evaluate(eval_data, batch, 12);
  std::printf("  loss %.4f, final accuracy %.2f\n", phase3.mean_loss,
              final_acc);

  std::remove(path.c_str());
  const bool ok = warm_acc > cold_acc - 0.05 && final_acc >= warm_acc - 0.1;
  std::printf("%s\n", ok ? "checkpoint round-trip OK"
                         : "checkpoint round-trip FAILED");
  return ok ? 0 : 1;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
