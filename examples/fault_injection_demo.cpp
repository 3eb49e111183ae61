// Fault injection and self-healing execution — what a resilience drill
// on a deployed swDNN looks like. The demo runs the same convolution
// under three conditions:
//
//   1. a fault-free baseline,
//   2. a transient-fault campaign (the first DMA attempts on every CPE
//      fail) absorbed by the handle's tile-level retry policy, with the
//      output verified bitwise identical to the baseline,
//   3. a persistent-fault campaign that exhausts the retries and
//      degrades the call to the host GEMM route,
//
// then kills one rank of a data-parallel training run mid-flight and
// shows the survivors converging on the reduction over live ranks, with
// the Trainer's checkpoint/rollback absorbing a corrupted step.
//
// Usage: fault_injection_demo [--mesh=2|4|8]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace api = swdnn::api;

namespace {

void print_counters(const api::Handle* handle) {
  api::FaultCounters c;
  api::fault_counters(handle, &c);
  std::printf("  faults: dma=%llu misalign=%llu ldm=%llu+%llu bus=%llu "
              "noc=%llu | retries=%llu host_fallbacks=%llu\n",
              static_cast<unsigned long long>(c.dma_transfer_faults),
              static_cast<unsigned long long>(c.dma_misalign_faults),
              static_cast<unsigned long long>(c.ldm_capacity_faults),
              static_cast<unsigned long long>(c.ldm_bitflip_faults),
              static_cast<unsigned long long>(c.regcomm_stalls),
              static_cast<unsigned long long>(c.noc_link_faults),
              static_cast<unsigned long long>(c.dma_retries),
              static_cast<unsigned long long>(c.host_fallbacks));
}

const char* route_name(const api::Handle* handle) {
  switch (api::last_execution_route(handle)) {
    case api::ExecutionRoute::kSimulatedMesh: return "simulated mesh";
    case api::ExecutionRoute::kHostGemm: return "host GEMM fallback";
    default: return "none";
  }
}

std::unique_ptr<swdnn::dnn::Network> make_net(std::int64_t batch) {
  swdnn::util::Rng rng(555);
  auto net = std::make_unique<swdnn::dnn::Network>();
  net->emplace<swdnn::dnn::Convolution>(
      swdnn::conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<swdnn::dnn::Relu>();
  net->emplace<swdnn::dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

}  // namespace

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  swdnn::arch::Sw26010Spec spec = swdnn::arch::default_spec();
  const int mesh = static_cast<int>(args.get_int("mesh", 2));
  spec.mesh_rows = spec.mesh_cols = mesh < 1 ? 2 : mesh;

  api::Handle* handle = nullptr;
  api::create(&handle, &spec);

  // A mesh-compatible layer on this mesh size.
  const int m = spec.mesh_rows;
  const auto shape =
      swdnn::conv::ConvShape::from_output(4, m, m, 3, 4, 2, 2);
  api::TensorDescriptor x_desc, y_desc;
  api::FilterDescriptor w_desc;
  api::set_tensor4d_descriptor(x_desc, shape.ri, shape.ci, shape.ni,
                               shape.batch);
  api::set_filter_descriptor(w_desc, shape.kr, shape.kc, shape.ni, shape.no);
  api::get_convolution_output_descriptor(x_desc, w_desc, y_desc);

  swdnn::util::Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(
      x_desc.rows * x_desc.cols * x_desc.channels * x_desc.batch));
  std::vector<double> w(static_cast<std::size_t>(w_desc.kr * w_desc.kc *
                                                 w_desc.ni * w_desc.no));
  std::vector<double> baseline(static_cast<std::size_t>(
      y_desc.rows * y_desc.cols * y_desc.channels * y_desc.batch));
  rng.fill_uniform(x, -1, 1);
  rng.fill_uniform(w, -1, 1);

  // 1. Fault-free baseline.
  api::convolution_forward(handle, x_desc, x.data(), w_desc, w.data(),
                           y_desc, baseline.data());
  std::printf("baseline forward: route = %s\n", route_name(handle));

  // 2. Transient campaign: the first two DMA attempts on every CPE
  //    fault; four attempts with backoff absorb them at tile level.
  swdnn::sim::FaultPlan transient;
  transient.seed = 2026;
  transient.fail_first_dma = 2;
  api::set_fault_plan(handle, &transient);
  api::set_retry_policy(handle, /*max_attempts=*/4, /*backoff_cycles=*/16);
  std::vector<double> retried(baseline.size());
  api::convolution_forward(handle, x_desc, x.data(), w_desc, w.data(),
                           y_desc, retried.data());
  std::printf("transient campaign: route = %s, output %s baseline\n",
              route_name(handle),
              std::memcmp(retried.data(), baseline.data(),
                          baseline.size() * sizeof(double)) == 0
                  ? "bitwise identical to"
                  : "DIFFERS from");
  print_counters(handle);

  // 3. Persistent campaign: every attempt faults, retries exhaust, the
  //    call degrades to the host route instead of returning garbage.
  swdnn::sim::FaultPlan persistent;
  persistent.seed = 2026;
  persistent.fail_first_dma = 1u << 20;
  api::set_fault_plan(handle, &persistent);
  std::vector<double> degraded(baseline.size());
  api::convolution_forward(handle, x_desc, x.data(), w_desc, w.data(),
                           y_desc, degraded.data());
  std::printf("persistent campaign: route = %s (\"%s\")\n",
              route_name(handle), api::last_error_message(handle));
  print_counters(handle);
  api::destroy(handle);

  // 4. Self-healing data-parallel training: kill a rank mid-run.
  std::printf("\ndata-parallel training, 3 ranks, killing rank 1 at step "
              "5:\n");
  swdnn::parallel::HierarchicalTrainer dp(
      swdnn::parallel::HierTopology::grid(3, 1), [] { return make_net(4); },
      0.3);
  swdnn::dnn::SyntheticBars data(4, 3, 0.05, 68);
  for (int step = 0; step < 15; ++step) {
    if (step == 5) dp.kill_rank(1);
    std::vector<swdnn::dnn::Batch> shards;
    for (int node = 0; node < 3; ++node) shards.push_back(data.sample(4));
    const auto r = dp.train_step(shards);
    if (step % 2 == 0 || step == 5) {
      std::printf("  step %2d: live=%d loss=%.3f\n", step, r.live_nodes,
                  r.loss);
    }
  }
  std::printf("  survivor divergence: %.1e (lockstep held)\n",
              dp.max_replica_divergence());

  // 5. Checkpoint/rollback: a NaN-poisoned batch (the signature of an
  //    unhealed LDM bit flip) is rolled back instead of applied.
  std::printf("\ncheckpointed trainer taking a corrupted batch:\n");
  auto net = make_net(8);
  swdnn::dnn::Sgd opt(0.3);
  swdnn::dnn::Trainer trainer(*net, opt);
  trainer.enable_checkpointing("/tmp/swdnn_demo_ckpt.bin", 1);
  for (int step = 0; step < 4; ++step) {
    trainer.train_step_resilient(data.sample(8));
  }
  swdnn::dnn::Batch poison = data.sample(8);
  poison.images.data()[0] = std::numeric_limits<double>::quiet_NaN();
  const auto faulted = trainer.train_step_resilient(poison);
  std::printf("  corrupted step rolled back: %s (checkpoints written: %d)\n",
              faulted.rolled_back ? "yes" : "NO", trainer.checkpoints_written());
  const auto clean = trainer.train_step_resilient(data.sample(8));
  std::printf("  next step trains normally: loss=%.3f rolled_back=%s\n",
              clean.loss.loss, clean.rolled_back ? "yes" : "no");
  std::remove("/tmp/swdnn_demo_ckpt.bin");
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
