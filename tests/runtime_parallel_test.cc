// Host parallel runtime determinism suite: the TaskPool contract
// (chunking, nesting, exceptions, resizing) and the bitwise-identity
// guarantee — every parallelized kernel and the concurrent
// data-parallel replica stepping must produce exactly the same doubles
// at 1, 2, and 8 threads, including when the backend is degrading to
// the host route under injected faults.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/api/swdnn_api.h"
#include "src/conv/gemm.h"
#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/dnn/convolution.h"
#include "src/dnn/dropout.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/lrn.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/runtime/task_pool.h"
#include "src/sim/fault.h"
#include "src/util/ksum.h"
#include "src/util/rng.h"

namespace swdnn {
namespace {

/// Runs `fn` with the shared pool resized to `threads`, restoring the
/// prior size afterwards.
template <typename Fn>
auto with_threads(int threads, Fn fn) {
  const int prior = runtime::host_threads();
  runtime::set_host_threads(threads);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    runtime::set_host_threads(prior);
  } else {
    auto result = fn();
    runtime::set_host_threads(prior);
    return result;
  }
}

const int kThreadCounts[] = {1, 2, 8};

// --- TaskPool contract -----------------------------------------------

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : kThreadCounts) {
    with_threads(threads, [] {
      std::vector<std::atomic<int>> hits(101);
      runtime::parallel_for(0, 101, 7, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
      });
      for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    });
  }
}

TEST(TaskPool, ChunkBoundariesDependOnlyOnRangeAndGrain) {
  EXPECT_EQ(runtime::TaskPool::chunk_count(0, 0, 4), 0);
  EXPECT_EQ(runtime::TaskPool::chunk_count(0, 1, 4), 1);
  EXPECT_EQ(runtime::TaskPool::chunk_count(0, 8, 4), 2);
  EXPECT_EQ(runtime::TaskPool::chunk_count(0, 9, 4), 3);
  EXPECT_EQ(runtime::TaskPool::chunk_count(3, 9, 2), 3);
  for (const int threads : kThreadCounts) {
    auto chunks = with_threads(threads, [] {
      std::vector<std::pair<std::int64_t, std::int64_t>> out(
          static_cast<std::size_t>(runtime::TaskPool::chunk_count(5, 42, 6)));
      runtime::parallel_for_shards(
          5, 42, 6, [&](std::int64_t chunk, std::int64_t b, std::int64_t e) {
            out[static_cast<std::size_t>(chunk)] = {b, e};
          });
      return out;
    });
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c].first, 5 + static_cast<std::int64_t>(c) * 6);
      EXPECT_EQ(chunks[c].second,
                std::min<std::int64_t>(chunks[c].first + 6, 42));
    }
  }
}

TEST(TaskPool, NestedCallsRunInlineWithoutDeadlock) {
  with_threads(4, [] {
    std::vector<std::atomic<int>> hits(64);
    runtime::parallel_for(0, 8, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        runtime::parallel_for(0, 8, 1, [&](std::int64_t ib, std::int64_t ie) {
          for (std::int64_t i = ib; i < ie; ++i) {
            hits[static_cast<std::size_t>(o * 8 + i)]++;
          }
        });
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  });
}

TEST(TaskPool, LowestFaultingChunkExceptionPropagates) {
  for (const int threads : kThreadCounts) {
    with_threads(threads, [] {
      try {
        runtime::parallel_for(0, 40, 1, [&](std::int64_t b, std::int64_t) {
          if (b >= 10) throw std::runtime_error("chunk " + std::to_string(b));
        });
        FAIL() << "expected the worker exception to be rethrown";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "chunk 10");
      }
    });
  }
}

TEST(TaskPool, SetThreadCountReconfiguresThePool) {
  const int prior = runtime::host_threads();
  runtime::set_host_threads(3);
  EXPECT_EQ(runtime::host_threads(), 3);
  std::atomic<int> sum{0};
  runtime::parallel_for(0, 10, 1, [&](std::int64_t b, std::int64_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 10);
  runtime::set_host_threads(1);
  EXPECT_EQ(runtime::host_threads(), 1);
  runtime::set_host_threads(prior);
}

// --- Bitwise kernel determinism --------------------------------------

TEST(ParallelDeterminism, PackedGemmBitwiseMatchesBlockedAtAnyThreadCount) {
  util::Rng rng(77);
  const std::int64_t m = 37, n = 45, k = 29;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  for (const std::int64_t tile : {1, 10, 64}) {
    std::vector<double> ref(static_cast<std::size_t>(m * n), 0.25);
    conv::gemm_blocked(m, n, k, a, b, ref, tile);
    for (const int threads : kThreadCounts) {
      std::vector<double> c(static_cast<std::size_t>(m * n), 0.25);
      with_threads(threads, [&] {
        conv::gemm_packed_parallel(m, n, k, a, b, c, tile);
      });
      EXPECT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)),
                0)
          << "threads=" << threads << " tile=" << tile;
    }
  }
}

TEST(ParallelDeterminism, Im2colPathBitwiseStableAcrossThreadCounts) {
  const conv::ConvShape s = conv::ConvShape::from_output(3, 2, 4, 5, 6, 3, 3);
  util::Rng rng(88);
  tensor::Tensor input = conv::make_input(s);
  tensor::Tensor filter = conv::make_filter(s);
  tensor::Tensor dout = conv::make_output(s);
  rng.fill_uniform(input.data(), -1, 1);
  rng.fill_uniform(filter.data(), -1, 1);
  rng.fill_uniform(dout.data(), -1, 1);

  auto run = [&](int threads) {
    return with_threads(threads, [&] {
      tensor::Tensor y = conv::make_output(s);
      tensor::Tensor din = conv::make_input(s);
      tensor::Tensor dw = conv::make_filter(s);
      conv::im2col_forward(input, filter, y, s);
      conv::im2col_backward_data(dout, filter, din, s);
      conv::im2col_backward_filter(input, dout, dw, s);
      std::vector<double> flat;
      for (const auto* t : {&y, &din, &dw}) {
        flat.insert(flat.end(), t->data().begin(), t->data().end());
      }
      return flat;
    });
  };

  const std::vector<double> serial = run(1);
  for (const int threads : {2, 8}) {
    const std::vector<double> parallel_run = run(threads);
    ASSERT_EQ(parallel_run.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel_run.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

/// A network touching every parallelized layer family: conv, relu,
/// pooling, LRN, dropout (serial RNG mask, parallel apply), FC, and the
/// softmax-cross-entropy loss reduction.
std::unique_ptr<dnn::Network> make_wide_net(std::int64_t batch) {
  util::Rng rng(991);
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 3, 6, 6, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);
  net->emplace<dnn::Lrn>(3, 1e-4, 0.75, 2.0);
  net->emplace<dnn::Dropout>(0.25, 4242);
  net->emplace<dnn::FullyConnected>(3 * 3 * 3, 4, rng);
  return net;
}

/// Trains `steps` batches and returns every parameter double plus the
/// per-step losses — the full observable state of the run.
std::vector<double> train_signature(int threads, int steps) {
  return with_threads(threads, [&] {
    auto net = make_wide_net(6);
    dnn::Sgd opt(0.15, 0.9);
    dnn::Trainer trainer(*net, opt);
    dnn::SyntheticBars data(8, 4, 0.05, 321);
    std::vector<double> sig;
    for (int s = 0; s < steps; ++s) {
      sig.push_back(trainer.train_step(data.sample(6)).loss);
    }
    for (const auto& pg : net->params()) {
      const auto d = pg.param->data();
      sig.insert(sig.end(), d.begin(), d.end());
    }
    return sig;
  });
}

TEST(ParallelDeterminism, TrainingRunBitwiseStableAcrossThreadCounts) {
  const std::vector<double> serial = train_signature(1, 4);
  for (const int threads : {2, 8}) {
    const std::vector<double> parallel_run = train_signature(threads, 4);
    ASSERT_EQ(parallel_run.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel_run.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

std::unique_ptr<dnn::Network> make_replica(std::int64_t batch) {
  util::Rng rng(555);
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(batch, 1, 2, 2, 2, 3, 3), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(2 * 2 * 2, 3, rng);
  return net;
}

/// A data-parallel run with a kill and a revive mid-stream: per-step
/// losses plus replica 0's final parameters.
std::vector<double> data_parallel_signature(int threads) {
  return with_threads(threads, [&] {
    parallel::HierarchicalTrainer dp(parallel::HierTopology::grid(3, 1),
                                     [] { return make_replica(4); }, 0.2, 0.9);
    dnn::SyntheticBars data(4, 3, 0.05, 68);
    auto shards = [&] {
      std::vector<dnn::Batch> out;
      for (int node = 0; node < 3; ++node) out.push_back(data.sample(4));
      return out;
    };
    std::vector<double> sig;
    for (int step = 0; step < 3; ++step) sig.push_back(dp.train_step(shards()).loss);
    dp.kill_rank(1);
    for (int step = 0; step < 3; ++step) sig.push_back(dp.train_step(shards()).loss);
    dp.revive_rank(1);
    for (int step = 0; step < 3; ++step) sig.push_back(dp.train_step(shards()).loss);
    sig.push_back(dp.max_replica_divergence());
    for (const auto& pg : dp.replica(0).params()) {
      const auto d = pg.param->data();
      sig.insert(sig.end(), d.begin(), d.end());
    }
    return sig;
  });
}

TEST(ParallelDeterminism, ConcurrentReplicaSteppingBitwiseMatchesSequential) {
  const std::vector<double> serial = data_parallel_signature(1);
  // The survivors stay in lockstep through the kill/revive sequence.
  EXPECT_EQ(serial[9], 0.0);  // divergence slot: 9 per-step losses first
  for (const int threads : {2, 8}) {
    const std::vector<double> concurrent = data_parallel_signature(threads);
    ASSERT_EQ(concurrent.size(), serial.size());
    EXPECT_EQ(std::memcmp(concurrent.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

// --- Determinism under injected faults -------------------------------

/// Forward through the API with every DMA attempt faulting, so the call
/// exhausts retries and degrades to the (parallel) host-GEMM fallback.
std::vector<double> faulted_forward_signature(int threads) {
  return with_threads(threads, [&] {
    const conv::ConvShape s =
        conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
    util::Rng rng(4242);
    tensor::Tensor input = conv::make_input(s);
    tensor::Tensor filter = conv::make_filter(s);
    rng.fill_uniform(input.data(), -1, 1);
    rng.fill_uniform(filter.data(), -1, 1);

    arch::Sw26010Spec spec = arch::default_spec();
    spec.mesh_rows = 2;
    spec.mesh_cols = 2;
    api::Handle* handle = nullptr;
    EXPECT_EQ(api::create(&handle, &spec), api::Status::kSuccess);
    sim::FaultPlan plan;
    plan.fail_first_dma = 1u << 20;
    EXPECT_EQ(api::set_fault_plan(handle, &plan), api::Status::kSuccess);
    EXPECT_EQ(api::set_retry_policy(handle, 2, 4), api::Status::kSuccess);

    api::TensorDescriptor x_desc, y_desc;
    api::FilterDescriptor w_desc;
    api::set_tensor4d_descriptor(x_desc, s.ri, s.ci, s.ni, s.batch);
    api::set_filter_descriptor(w_desc, s.kr, s.kc, s.ni, s.no);
    api::set_tensor4d_descriptor(y_desc, s.ro(), s.co(), s.no, s.batch);
    std::vector<double> y(
        static_cast<std::size_t>(s.ro() * s.co() * s.no * s.batch));
    EXPECT_EQ(api::convolution_forward(handle, x_desc, input.data().data(),
                                       w_desc, filter.data().data(), y_desc,
                                       y.data()),
              api::Status::kSuccess);
    EXPECT_EQ(api::last_execution_route(handle),
              api::ExecutionRoute::kHostGemm);
    EXPECT_EQ(api::destroy(handle), api::Status::kSuccess);
    return y;
  });
}

TEST(ParallelDeterminism, HostFallbackUnderFaultsBitwiseStable) {
  const std::vector<double> serial = faulted_forward_signature(1);
  for (const int threads : {2, 8}) {
    const std::vector<double> parallel_run = faulted_forward_signature(threads);
    ASSERT_EQ(parallel_run.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel_run.data(), serial.data(),
                          serial.size() * sizeof(double)),
              0)
        << "threads=" << threads;
  }
}

// --- Compensated metric accumulation ---------------------------------

TEST(KahanSum, RecoversBitsANaiveSumLoses) {
  // 1e16 has a ulp of 2: naively adding 1.0 eight times is absorbed
  // (1e16 + 1 rounds back down every time), while the compensated sum
  // lands on 1e16 + 8 exactly. No tolerance anywhere.
  util::KahanSum ks;
  double naive = 0.0;
  ks.add(1.0e16);
  naive += 1.0e16;
  for (int i = 0; i < 8; ++i) {
    ks.add(1.0);
    naive += 1.0;
  }
  EXPECT_EQ(naive, 1.0e16);            // the bug this satellite fixes
  EXPECT_EQ(ks.value(), 1.0e16 + 8.0);  // exact
}

TEST(KahanSum, EvaluateStatsMatchesReferenceAccumulationExactly) {
  // Two independent builds of the same net + data stream: the manual
  // Kahan loop and Trainer::evaluate_stats must agree to the last bit.
  auto net_a = make_wide_net(5);
  dnn::Sgd opt_a(0.1);
  dnn::Trainer trainer(*net_a, opt_a);
  dnn::SyntheticBars data_a(8, 4, 0.05, 777);
  const dnn::EvalStats stats = trainer.evaluate_stats(data_a, 5, 6);

  auto net_b = make_wide_net(5);
  net_b->set_training(false);
  dnn::SyntheticBars data_b(8, 4, 0.05, 777);
  util::KahanSum loss_sum;
  std::int64_t correct = 0;
  for (int s = 0; s < 6; ++s) {
    const dnn::Batch batch = data_b.sample(5);
    const dnn::LossResult loss =
        dnn::softmax_cross_entropy(net_b->forward(batch.images), batch.labels);
    loss_sum.add(loss.loss);
    correct += loss.correct;
  }
  EXPECT_EQ(stats.mean_loss, loss_sum.value() / 6.0);
  EXPECT_EQ(stats.accuracy, static_cast<double>(correct) / 30.0);
}

}  // namespace
}  // namespace swdnn
