// The data-parallel substrate: the interconnect cost model, and
// synchronous-SGD equivalence with single-node full-batch training on
// the flat topology HierTopology::grid(n, 1).

#include <gtest/gtest.h>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/parallel/hierarchical.h"
#include "src/util/rng.h"

namespace swdnn::parallel {
namespace {

TEST(CostModel, SingleNodeIsFree) {
  EXPECT_EQ(ring_allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(CostModel, BandwidthTermDominatesLargeMessages) {
  // 2(N-1)/N * bytes / bw: for large messages the time is nearly
  // node-count independent (the ring's hallmark).
  InterconnectSpec spec;
  spec.hop_latency_us = 0;
  const std::int64_t bytes = 1 << 30;
  const double t4 = ring_allreduce_seconds(bytes, 4, spec);
  const double t16 = ring_allreduce_seconds(bytes, 16, spec);
  EXPECT_NEAR(t16 / t4, (2.0 * 15 / 16) / (2.0 * 3 / 4), 1e-9);
  EXPECT_LT(t16 / t4, 1.3);
}

TEST(CostModel, LatencyTermGrowsWithNodes) {
  InterconnectSpec spec;
  spec.hop_latency_us = 10;
  EXPECT_GT(ring_allreduce_seconds(8, 16, spec),
            ring_allreduce_seconds(8, 4, spec));
}

TEST(CostModel, EfficiencyFallsWithNodesAtFixedCompute) {
  const std::int64_t grad_bytes = 64 << 20;  // a VGG-scale gradient
  const double compute = 0.05;
  double prev = 1.0;
  for (int nodes : {2, 8, 32}) {
    const double eff = data_parallel_efficiency(compute, grad_bytes, nodes);
    EXPECT_LT(eff, prev);
    EXPECT_GT(eff, 0.1);
    prev = eff;
  }
}

std::unique_ptr<dnn::Network> make_net(std::int64_t batch) {
  util::Rng rng(555);  // fixed seed: replicas identical
  auto net = std::make_unique<dnn::Network>();
  // 4x4 input images (SyntheticBars size 4) -> 2x2 conv output.
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

TEST(DataParallel, TwoNodesMatchSingleNodeFullBatch) {
  // Synchronous SGD with gradient averaging over equal shards is
  // mathematically identical to full-batch training (the loss is a
  // per-batch mean): verify to fp tolerance.
  const std::int64_t batch = 8;
  dnn::SyntheticBars data(4, 3, 0.05, 66);
  const dnn::Batch full = data.sample(batch);

  // Single node, full batch.
  auto single = make_net(batch);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*single, opt);
  trainer.train_step(full);

  // Two nodes, half shards.
  HierarchicalTrainer dp(HierTopology::grid(2, 1), [] { return make_net(4); },
                         0.1);
  std::vector<dnn::Batch> shards(2);
  for (int node = 0; node < 2; ++node) {
    shards[node].images = tensor::Tensor({4, 4, 1, 4});
    for (std::int64_t r = 0; r < 4; ++r)
      for (std::int64_t c = 0; c < 4; ++c)
        for (std::int64_t b = 0; b < 4; ++b)
          shards[node].images.at(r, c, 0, b) =
              full.images.at(r, c, 0, node * 4 + b);
    shards[node].labels.assign(full.labels.begin() + node * 4,
                               full.labels.begin() + (node + 1) * 4);
  }
  dp.train_step(shards);

  // Parameters must match the single-node result.
  const auto ps = single->params();
  const auto pd = dp.replica(0).params();
  ASSERT_EQ(ps.size(), pd.size());
  for (std::size_t p = 0; p < ps.size(); ++p) {
    EXPECT_LE(ps[p].param->max_abs_diff(*pd[p].param), 1e-12)
        << "param " << p;
  }
  // And the replicas stay in lockstep.
  EXPECT_LE(dp.max_replica_divergence(), 1e-12);
}

TEST(DataParallel, DeadRankStepEqualsSgdOnTheLiveShards) {
  // With rank 1 of 3 dead, the average must rescale to the two live
  // ranks: one step equals single-replica SGD on shards 0 and 2
  // concatenated.
  dnn::SyntheticBars data(4, 3, 0.05, 71);
  std::vector<dnn::Batch> shards;
  for (int node = 0; node < 3; ++node) shards.push_back(data.sample(4));

  dnn::Batch live;
  live.images = tensor::Tensor({4, 4, 1, 8});
  for (const int node : {0, 2}) {
    const std::int64_t offset = node == 0 ? 0 : 4;
    for (std::int64_t r = 0; r < 4; ++r)
      for (std::int64_t c = 0; c < 4; ++c)
        for (std::int64_t b = 0; b < 4; ++b)
          live.images.at(r, c, 0, offset + b) =
              shards[static_cast<std::size_t>(node)].images.at(r, c, 0, b);
    const auto& labels = shards[static_cast<std::size_t>(node)].labels;
    live.labels.insert(live.labels.end(), labels.begin(), labels.end());
  }
  auto single = make_net(8);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*single, opt);
  trainer.train_step(live);

  HierarchicalTrainer dp(HierTopology::grid(3, 1), [] { return make_net(4); },
                         0.1);
  dp.kill_rank(1);
  const HierStepReport report = dp.train_step(shards);
  EXPECT_EQ(report.live_ranks, 2);

  const auto ps = single->params();
  for (const int rank : {0, 2}) {
    const auto pd = dp.replica(rank).params();
    ASSERT_EQ(ps.size(), pd.size());
    for (std::size_t p = 0; p < ps.size(); ++p) {
      EXPECT_LE(ps[p].param->max_abs_diff(*pd[p].param), 1e-12)
          << "rank " << rank << " param " << p;
    }
  }
}

TEST(DataParallel, ReplicasStayInSyncOverManySteps) {
  HierarchicalTrainer dp(HierTopology::grid(3, 1), [] { return make_net(2); },
                         0.2, 0.9);
  dnn::SyntheticBars data(4, 3, 0.05, 67);
  for (int step = 0; step < 10; ++step) {
    std::vector<dnn::Batch> shards;
    for (int node = 0; node < 3; ++node) shards.push_back(data.sample(2));
    const auto result = dp.train_step(shards);
    EXPECT_GE(result.exchange_flat_seconds, 0.0);
  }
  EXPECT_LE(dp.max_replica_divergence(), 1e-12);
}

TEST(DataParallel, GradientBytesCountAllParameters) {
  HierarchicalTrainer dp(HierTopology::grid(2, 1), [] { return make_net(2); },
                         0.1);
  // conv filter 3*3*1*2 + fc weights 3*8 + fc bias 3 = 45 doubles.
  EXPECT_EQ(dp.gradient_bytes(), (3 * 3 * 1 * 2 + 3 * 8 + 3) * 8);
}

TEST(DataParallel, RejectsWrongShardCount) {
  HierarchicalTrainer dp(HierTopology::grid(2, 1), [] { return make_net(2); },
                         0.1);
  std::vector<dnn::Batch> shards(1);
  EXPECT_THROW(dp.train_step(shards), std::invalid_argument);
  EXPECT_THROW(HierarchicalTrainer(HierTopology::grid(0, 1),
                                   [] { return make_net(2); }, 0.1),
               std::invalid_argument);
}

}  // namespace
}  // namespace swdnn::parallel
