// Self-healing training: losing and reviving ranks mid-training (the
// reduction over live ranks), and the Trainer's checkpoint/rollback
// path for corrupted or faulting steps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/util/rng.h"

namespace swdnn::parallel {
namespace {

std::unique_ptr<dnn::Network> make_net(std::int64_t batch) {
  util::Rng rng(555);  // fixed seed: replicas identical
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

std::vector<dnn::Batch> make_shards(dnn::SyntheticBars& data, int nodes,
                                    std::int64_t batch) {
  std::vector<dnn::Batch> shards;
  for (int node = 0; node < nodes; ++node) shards.push_back(data.sample(batch));
  return shards;
}

TEST(DataParallelResilience, TrainingConvergesOnSurvivorsAfterAKill) {
  // The acceptance scenario: kill one rank mid-training; the ring is
  // rebuilt over the survivors, the replicas stay in lockstep, and the
  // loss keeps going down.
  HierarchicalTrainer dp(HierTopology::grid(3, 1), [] { return make_net(4); },
                         0.3);
  dnn::SyntheticBars data(4, 3, 0.05, 68);

  double early = 0;
  for (int step = 0; step < 5; ++step) {
    const auto r = dp.train_step(make_shards(data, 3, 4));
    EXPECT_EQ(r.live_nodes, 3);
    early += r.loss;
  }
  early /= 5;

  dp.kill_rank(1);
  EXPECT_FALSE(dp.rank_alive(1));
  EXPECT_EQ(dp.live_ranks(), 2);

  double late = 0;
  for (int step = 0; step < 35; ++step) {
    const auto r = dp.train_step(make_shards(data, 3, 4));
    EXPECT_EQ(r.live_nodes, 2);
    if (step >= 30) late += r.loss;
  }
  late /= 5;

  EXPECT_LT(late, early);
  EXPECT_LE(dp.max_replica_divergence(), 1e-12);  // survivors in lockstep
}

TEST(DataParallelResilience, RevivedRankRejoinsInLockstepWithMomentum) {
  HierarchicalTrainer dp(HierTopology::grid(3, 1), [] { return make_net(2); },
                         0.2, 0.9);
  dnn::SyntheticBars data(4, 3, 0.05, 69);
  for (int step = 0; step < 3; ++step) {
    dp.train_step(make_shards(data, 3, 2));
  }
  dp.kill_rank(2);
  for (int step = 0; step < 3; ++step) {
    dp.train_step(make_shards(data, 3, 2));
  }
  dp.revive_rank(2);
  EXPECT_TRUE(dp.rank_alive(2));
  EXPECT_EQ(dp.live_ranks(), 3);
  // Momentum state was copied with the parameters, so the revived rank
  // stays bit-identical through further updates.
  for (int step = 0; step < 3; ++step) {
    dp.train_step(make_shards(data, 3, 2));
  }
  EXPECT_LE(dp.max_replica_divergence(), 1e-12);
}

TEST(DataParallelResilience, AllRanksDeadIsAnError) {
  HierarchicalTrainer dp(HierTopology::grid(2, 1), [] { return make_net(2); },
                         0.1);
  dnn::SyntheticBars data(4, 3, 0.05, 70);
  dp.kill_rank(0);
  dp.kill_rank(1);
  EXPECT_THROW(dp.train_step(make_shards(data, 2, 2)), std::runtime_error);
}

TEST(DataParallelResilience, ReviveWithNoSurvivorsThrows) {
  HierarchicalTrainer dp(HierTopology::grid(2, 1), [] { return make_net(2); },
                         0.1);
  dp.kill_rank(0);
  dp.kill_rank(1);
  EXPECT_THROW(dp.revive_rank(0), std::runtime_error);
}

std::vector<std::vector<double>> snapshot(dnn::Network& net) {
  std::vector<std::vector<double>> out;
  for (const auto& pg : net.params()) {
    const auto d = pg.param->data();
    out.emplace_back(d.begin(), d.end());
  }
  return out;
}

void expect_equal(const std::vector<std::vector<double>>& a,
                  dnn::Network& net) {
  const auto params = net.params();
  ASSERT_EQ(a.size(), params.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto d = params[p].param->data();
    ASSERT_EQ(a[p].size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(a[p][i], d[i]) << "param " << p << " elem " << i;
    }
  }
}

TEST(DataParallelResilience, DeadRankIsNeitherReadNorWritten) {
  // From kill_rank until revive_rank the dead rank's parameters and
  // momentum stay bit-identical, and its gradients (poisoned with NaN)
  // never reach the survivors.
  HierarchicalTrainer dp(HierTopology::grid(3, 1), [] { return make_net(2); },
                         0.2, 0.9);
  dnn::SyntheticBars data(4, 3, 0.05, 72);
  for (int step = 0; step < 3; ++step) dp.train_step(make_shards(data, 3, 2));

  dp.kill_rank(1);
  dnn::Network& dead = dp.replica(1);
  const auto params = snapshot(dead);
  std::vector<std::vector<double>> velocity;
  for (const auto& pg : dead.params()) {
    const tensor::Tensor* v = dp.optimizer(1).velocity(pg.param);
    ASSERT_NE(v, nullptr);
    velocity.emplace_back(v->data().begin(), v->data().end());
    pg.grad->fill(std::numeric_limits<double>::quiet_NaN());
  }
  for (int step = 0; step < 3; ++step) dp.train_step(make_shards(data, 3, 2));

  expect_equal(params, dead);
  const auto dead_params = dead.params();
  for (std::size_t p = 0; p < dead_params.size(); ++p) {
    const auto v = dp.optimizer(1).velocity(dead_params[p].param)->data();
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], velocity[p][i]) << "velocity " << p << " elem " << i;
    }
    for (const double g : dead_params[p].grad->data()) {
      ASSERT_TRUE(std::isnan(g)) << "gradient " << p << " was written";
    }
  }
  for (const auto& pg : dp.replica(0).params()) {
    for (const double x : pg.param->data()) ASSERT_TRUE(std::isfinite(x));
  }
  EXPECT_EQ(dp.max_replica_divergence(), 0.0);

  dp.revive_rank(1);
  EXPECT_EQ(dp.max_replica_divergence(), 0.0);
}

TEST(TrainerResilience, RollbackRestoresTheLastCheckpoint) {
  auto net = make_net(4);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  EXPECT_FALSE(trainer.rollback());  // checkpointing off

  const std::string path = ::testing::TempDir() + "/swdnn_ckpt.bin";
  trainer.enable_checkpointing(path, 1);
  EXPECT_FALSE(trainer.rollback());  // nothing saved yet

  dnn::SyntheticBars data(4, 3, 0.05, 71);
  const auto before = snapshot(*net);
  const auto step = trainer.train_step_resilient(data.sample(4));
  EXPECT_FALSE(step.rolled_back);
  EXPECT_EQ(trainer.checkpoints_written(), 1);

  // The step updated the parameters; rollback returns to the
  // checkpoint taken before the update.
  ASSERT_TRUE(trainer.rollback());
  expect_equal(before, *net);
  std::remove(path.c_str());
}

TEST(TrainerResilience, NonFiniteGradientsRollBackInsteadOfPoisoning) {
  auto net = make_net(4);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_nan.bin";
  trainer.enable_checkpointing(path, 1);

  dnn::SyntheticBars data(4, 3, 0.05, 72);
  trainer.train_step_resilient(data.sample(4));
  const auto good = snapshot(*net);

  // A batch corrupted by an unhealed fault (NaN pixels, the LDM
  // bit-flip failure mode) must not reach the parameters.
  dnn::Batch poison = data.sample(4);
  poison.images.data()[0] = std::numeric_limits<double>::quiet_NaN();
  const auto step = trainer.train_step_resilient(poison);
  EXPECT_TRUE(step.rolled_back);
  expect_equal(good, *net);

  // Training continues normally afterwards.
  const auto next = trainer.train_step_resilient(data.sample(4));
  EXPECT_FALSE(next.rolled_back);
  std::remove(path.c_str());
}

TEST(TrainerResilience, CheckpointIntervalThrottlesWrites) {
  auto net = make_net(2);
  dnn::Sgd opt(0.1);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_int.bin";
  trainer.enable_checkpointing(path, 3);
  dnn::SyntheticBars data(4, 3, 0.05, 73);
  for (int step = 0; step < 7; ++step) {
    trainer.train_step_resilient(data.sample(2));
  }
  EXPECT_EQ(trainer.checkpoints_written(), 3);  // steps 0, 3, 6
  std::remove(path.c_str());
}

TEST(TrainerResilience, TrainingConvergesFromTheLastCheckpointAfterAFault) {
  // End-to-end: train, take a fault (rolled back), keep training; the
  // model still learns the synthetic task.
  auto net = make_net(8);
  dnn::Sgd opt(0.3);
  dnn::Trainer trainer(*net, opt);
  const std::string path = ::testing::TempDir() + "/swdnn_ckpt_conv.bin";
  trainer.enable_checkpointing(path, 1);
  dnn::SyntheticBars data(4, 3, 0.05, 74);

  double early = 0;
  for (int step = 0; step < 5; ++step) {
    early += trainer.train_step_resilient(data.sample(8)).loss.loss;
  }
  early /= 5;

  dnn::Batch poison = data.sample(8);
  poison.images.data()[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(trainer.train_step_resilient(poison).rolled_back);

  double late = 0;
  for (int step = 0; step < 40; ++step) {
    const double loss = trainer.train_step_resilient(data.sample(8)).loss.loss;
    if (step >= 35) late += loss;
  }
  late /= 5;
  EXPECT_LT(late, early);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swdnn::parallel
