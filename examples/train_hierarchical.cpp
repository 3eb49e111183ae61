// Hierarchical scale-out training: replicas organized as node x CG,
// gradients reduced intra-node over the NoC, inter-node over the
// resilient ring, broadcast back down — with bucketed comm/compute
// overlap — plus a pipeline-parallel run of the same network split
// across CGs. Kills a rank (then a whole node) mid-run to show the
// self-healing path at scale-out topology.
//
// Usage: train_hierarchical [--nodes=4] [--cgs=4] [--steps=12]

#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/parallel/hierarchical.h"
#include "src/parallel/pipeline.h"
#include "src/util/cli.h"

namespace dnn = swdnn::dnn;
namespace parallel = swdnn::parallel;

namespace {

constexpr std::int64_t kShardBatch = 8;

std::unique_ptr<dnn::Network> make_replica() {
  swdnn::util::Rng rng(606);  // every replica identical
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      swdnn::conv::ConvShape::from_output(kShardBatch, 1, 8, 8, 8, 3, 3),
      rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);
  net->emplace<dnn::FullyConnected>(4 * 4 * 8, 32, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(32, 4, rng);
  return net;
}

}  // namespace

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  const int nodes = static_cast<int>(args.get_int("nodes", 4));
  const int cgs = static_cast<int>(args.get_int("cgs", 4));
  const int steps = static_cast<int>(args.get_int("steps", 12));

  const auto topo = parallel::HierTopology::grid(nodes, cgs);
  std::printf("hierarchical SGD: %d nodes x %d CGs = %d replicas, shard "
              "batch %lld (global %lld)\n\n",
              nodes, cgs, topo.total_ranks,
              static_cast<long long>(kShardBatch),
              static_cast<long long>(kShardBatch * topo.total_ranks));

  parallel::HierarchicalTrainer trainer(topo, make_replica, 0.1, 0.9);
  trainer.compile({10, 10, 1, kShardBatch});
  std::printf("gradient: %lld bytes in %zu buckets (fixed boundaries — "
              "part of the determinism contract)\n\n",
              static_cast<long long>(trainer.gradient_bytes()),
              trainer.buckets().size());

  dnn::SyntheticBars data(10, 4, 0.05, 31);
  parallel::HierStepReport report;
  for (int step = 1; step <= steps; ++step) {
    std::vector<dnn::Batch> shards;
    for (int r = 0; r < topo.total_ranks; ++r) {
      shards.push_back(data.sample(kShardBatch));
    }
    // Fault ladder mid-run: one CG dies, then its whole node, then
    // everything comes back — the canonical reduction just rescales
    // over the survivors, in the same fixed order.
    if (step == steps / 3) trainer.kill_rank(1);
    if (step == steps / 2) {
      for (int c = 0; c < cgs; ++c) trainer.kill_rank(cgs + c);
    }
    if (step == 2 * steps / 3) {
      for (int r = 0; r < topo.total_ranks; ++r) {
        if (!trainer.rank_alive(r)) trainer.revive_rank(r);
      }
    }
    report = trainer.train_step(shards);
    if (step == 1 || step % 4 == 0 || report.live_ranks < topo.total_ranks) {
      std::printf("step %2d: loss %.4f  live %2d/%d ranks on %d nodes  "
                  "exchange flat %6.1f us vs hier %6.1f us (%.2fx)  "
                  "step serialized %6.1f vs overlapped %6.1f us (%.2fx)\n",
                  step, report.loss, report.live_ranks, topo.total_ranks,
                  report.live_nodes, report.exchange_flat_seconds * 1e6,
                  report.exchange_hier.total() * 1e6,
                  report.hier_exchange_speedup(),
                  report.step_serialized_seconds * 1e6,
                  report.step_overlapped_seconds * 1e6,
                  report.overlap_speedup());
    }
  }
  std::printf("\nreplica divergence after the kill/revive ladder: %.1e "
              "(must be exactly 0)\n\n",
              trainer.max_replica_divergence());

  // The same network as a pipeline: layer stack split across CGs,
  // micro-batches flowing through a 1F1B schedule, arena-staged stage
  // boundaries — bitwise-identical to single-replica stepping.
  const int stages = 3, micro = 4;
  parallel::PipelineParallelTrainer pp(stages, micro, make_replica, 0.1,
                                       0.9);
  pp.compile({10, 10, 1, kShardBatch}, nullptr);  // per-micro-batch dims

  auto ref_net = make_replica();
  dnn::Sgd ref_opt(0.1, 0.9);
  dnn::SyntheticBars pipe_data(10, 4, 0.05, 31);
  double pipe_loss = 0, ref_loss = 0;
  for (int step = 1; step <= 4; ++step) {
    const dnn::Batch batch = pipe_data.sample(kShardBatch * micro);
    const auto r = pp.train_step(batch);
    pipe_loss = r.loss;
    ref_loss = parallel::PipelineParallelTrainer::reference_step(
                   *ref_net, ref_opt, batch, micro)
                   .loss;
  }
  std::printf("pipeline: %d stages x %d micro-batches, %zu schedule ticks, "
              "staging peak %lld bytes (naive double-buffer %lld)\n",
              stages, micro, pp.schedule().size(),
              static_cast<long long>(pp.staging_peak_bytes()),
              static_cast<long long>(pp.staging_naive_bytes()));
  std::printf("pipeline loss %.6f vs single-replica reference %.6f, max "
              "param divergence %.1e (must be exactly 0)\n",
              pipe_loss, ref_loss, pp.max_param_divergence(*ref_net));
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
