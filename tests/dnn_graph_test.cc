// Compiled execution graph: differential bitwise identity against the
// eager path, plan-cache hits and allocation-free steady state, per-layer
// trace spans, arena packing wins, the fault-fallback ladder inside a
// compiled training step, and data-parallel replicas sharing one backend
// context.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/spec.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/dropout.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/loss.h"
#include "src/dnn/network.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/sgd.h"
#include "src/dnn/softmax.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::dnn {
namespace {

/// conv -> relu -> pool -> fc -> softmax on host-territory shapes
/// (channel counts indivisible by the default 8x8 mesh), so compiled
/// and eager dispatch the SAME host GEMM kernels and must agree
/// bitwise.
std::unique_ptr<Network> make_cnn(std::uint64_t seed) {
  auto net = std::make_unique<Network>();
  util::Rng rng(seed);
  conv::ConvShape shape;
  shape.batch = 6;
  shape.ni = 3;
  shape.no = 5;
  shape.ri = 12;
  shape.ci = 12;
  shape.kr = 3;
  shape.kc = 3;
  net->emplace<Convolution>(shape, rng, ConvBackend::kHostIm2col,
                            /*with_bias=*/true);
  net->emplace<Relu>();
  net->emplace<MaxPooling>(2);  // 10x10x5 -> 5x5x5
  net->emplace<FullyConnected>(125, 10, rng);
  net->emplace<Softmax>();
  return net;
}

tensor::Tensor random_input(std::uint64_t seed) {
  tensor::Tensor input({12, 12, 3, 6});
  util::Rng rng(seed);
  rng.fill_uniform(input.data(), -1, 1);
  return input;
}

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.dims() != b.dims()) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) == 0;
}

TEST(DnnGraph, CompiledForwardBackwardBitwiseMatchesEager) {
  // Two identically-seeded networks; one compiled, one eager. Same
  // input, same loss gradient: outputs, input gradients, and every
  // parameter gradient must be bitwise identical — the compiled path
  // reroutes dispatch, never arithmetic.
  auto compiled = make_cnn(99);
  auto eager = make_cnn(99);
  compiled->compile({12, 12, 3, 6});
  ASSERT_TRUE(compiled->compiled());

  const tensor::Tensor input = random_input(7);
  const tensor::Tensor y_c = compiled->forward(input);
  const tensor::Tensor y_e = eager->forward(input);
  EXPECT_TRUE(bitwise_equal(y_c, y_e));

  tensor::Tensor d_out({10, 6});
  util::Rng grad_rng(13);
  grad_rng.fill_uniform(d_out.data(), -1, 1);
  const tensor::Tensor dx_c = compiled->backward(d_out);
  const tensor::Tensor dx_e = eager->backward(d_out);
  EXPECT_TRUE(bitwise_equal(dx_c, dx_e));

  const auto params_c = compiled->params();
  const auto params_e = eager->params();
  ASSERT_EQ(params_c.size(), params_e.size());
  for (std::size_t p = 0; p < params_c.size(); ++p) {
    EXPECT_TRUE(bitwise_equal(*params_c[p].grad, *params_e[p].grad))
        << "param " << p;
  }
}

TEST(DnnGraph, RunEagerEscapeHatchMatchesCompiledOnOneNetwork) {
  // The escape hatch flips one compiled network back to the eager loop;
  // both regimes over the same weights agree bitwise.
  auto net = make_cnn(4242);
  net->compile({12, 12, 3, 6});
  const tensor::Tensor input = random_input(21);

  const tensor::Tensor y_compiled = net->forward(input);
  net->set_run_eager(true);
  const tensor::Tensor y_eager = net->forward(input);
  net->set_run_eager(false);
  EXPECT_TRUE(bitwise_equal(y_compiled, y_eager));
}

TEST(DnnGraph, EagerEscapeHatchDispatchesThroughTheContext) {
  // A compiled mesh conv switched to the eager loop runs the same views
  // through the compiled context: its plan cache serves the eager
  // forward, backward-filter and backward-data, and the results match
  // the compiled step bitwise.
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  const auto shape = conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  Network net;
  util::Rng rng(61);
  net.emplace<Convolution>(shape, rng, ConvBackend::kSimulatedMesh);
  CompileOptions options;
  options.spec = &spec;
  net.compile({shape.ri, shape.ci, shape.ni, shape.batch}, options);

  tensor::Tensor input({shape.ri, shape.ci, shape.ni, shape.batch});
  tensor::Tensor d_out({shape.ro(), shape.co(), shape.no, shape.batch});
  util::Rng data_rng(62);
  data_rng.fill_uniform(input.data(), -1, 1);
  data_rng.fill_uniform(d_out.data(), -1, 1);

  const tensor::Tensor y_compiled = net.forward(input);
  const tensor::Tensor dx_compiled = net.backward(d_out);
  const tensor::Tensor dw_compiled = *net.params()[0].grad;
  const std::uint64_t hits = net.context()->plan_cache_counters().hits;

  net.set_run_eager(true);
  const tensor::Tensor y_eager = net.forward(input);
  const tensor::Tensor dx_eager = net.backward(d_out);
  EXPECT_EQ(net.context()->plan_cache_counters().hits, hits + 3);
  EXPECT_TRUE(bitwise_equal(y_compiled, y_eager));
  EXPECT_TRUE(bitwise_equal(dx_compiled, dx_eager));
  EXPECT_TRUE(bitwise_equal(dw_compiled, *net.params()[0].grad));
}

TEST(DnnGraph, SecondBatchServesPlanCacheHitsAndAllocatesNothingNew) {
  auto net = make_cnn(5);
  const CompiledStats& stats = net->compile({12, 12, 3, 6});
  const std::uint64_t arena_allocs_compile = stats.arena_allocations;

  // Plan warm-up at compile time is counter-neutral: the serve-time
  // ledger starts clean.
  api::PlanCacheCounters counters = net->context()->plan_cache_counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);

  const tensor::Tensor input = random_input(3);
  tensor::Tensor d_out({10, 6});
  util::Rng grad_rng(17);
  grad_rng.fill_uniform(d_out.data(), -1, 1);

  auto step = [&] {
    net->forward(input);
    net->backward(d_out);
  };
  step();  // batch 1: every dispatch hits the warmed entries
  counters = net->context()->plan_cache_counters();
  EXPECT_GT(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  const std::uint64_t hits_after_first = counters.hits;

  // Steady state: batch 2 and batch 3 must cost exactly the same number
  // of tensor allocations (no warm-up effects left), the arena must not
  // grow, and the plan cache keeps serving hits.
  step();  // batch 2
  const std::uint64_t allocs_before = tensor::allocation_count();
  step();  // batch 3
  const std::uint64_t batch3_cost = tensor::allocation_count() - allocs_before;
  const std::uint64_t allocs_before4 = tensor::allocation_count();
  step();  // batch 4
  const std::uint64_t batch4_cost = tensor::allocation_count() - allocs_before4;
  EXPECT_EQ(batch3_cost, batch4_cost);

  counters = net->context()->plan_cache_counters();
  EXPECT_GT(counters.hits, hits_after_first);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(net->compiled_stats().arena_allocations, arena_allocs_compile);
}

TEST(DnnGraph, CompiledStepEmitsPerLayerTraceSpans) {
  auto net = make_cnn(6);
  sim::EventTracer tracer;
  CompileOptions options;
  options.tracer = &tracer;
  net->compile({12, 12, 3, 6}, options);
  tracer.clear();  // drop compile-time plan_cache warm events

  const tensor::Tensor input = random_input(8);
  net->forward(input);
  tensor::Tensor d_out({10, 6});
  net->backward(d_out);

  std::size_t fwd = 0, bwd = 0;
  for (const sim::TraceEvent& event : tracer.events()) {
    if (event.category != "layer") continue;
    if (event.name.find(" fwd ") != std::string::npos) ++fwd;
    if (event.name.find(" bwd ") != std::string::npos) ++bwd;
    EXPECT_NE(event.name.find("in="), std::string::npos) << event.name;
    EXPECT_NE(event.name.find("out="), std::string::npos) << event.name;
    EXPECT_GE(event.end_cycle, event.begin_cycle);
  }
  // One span per graph node per phase (fusion collapses conv+relu, so
  // this is fewer than the layer count).
  EXPECT_EQ(fwd, net->compiled_stats().graph_nodes);
  EXPECT_EQ(bwd, net->compiled_stats().graph_nodes);
  EXPECT_LT(net->compiled_stats().graph_nodes, net->num_layers());
}

TEST(DnnGraph, ArenaPackingBeatsOneBufferPerTensor) {
  auto net = make_cnn(2);
  const CompiledStats& stats = net->compile({12, 12, 3, 6});
  EXPECT_GT(stats.arena_naive_bytes, 0);
  EXPECT_LT(stats.arena_peak_bytes, stats.arena_naive_bytes);
  // Values the optimized graph materializes: the input plus one output
  // per node, each with an activation and a gradient slot. Fused-away
  // intermediates never touch the arena.
  EXPECT_EQ(stats.arena_slots, 2 * (stats.graph_nodes + 1));
  EXPECT_EQ(stats.graph_nodes, net->num_layers() - stats.fused_conv_act -
                                   stats.fused_fc_act);
  EXPECT_EQ(stats.activation_dims.size(), net->num_layers() + 1);
  EXPECT_EQ(stats.activation_dims.back(),
            (std::vector<std::int64_t>{10, 6}));
}

TEST(DnnGraph, CompileRejectsShapeMismatches) {
  auto net = make_cnn(1);
  // Wrong channel count for the first conv.
  EXPECT_THROW(net->compile({12, 12, 4, 6}), std::invalid_argument);
  // FC feature mismatch surfaces during inference, not at run time.
  Network bad;
  util::Rng rng(3);
  bad.emplace<FullyConnected>(32, 4, rng);
  EXPECT_THROW(bad.compile({31, 2}), std::invalid_argument);
  // A compiled net rejects inputs that disagree with the compiled shape.
  net->compile({12, 12, 3, 6});
  tensor::Tensor wrong({12, 12, 3, 2});
  EXPECT_THROW(net->forward(wrong), std::invalid_argument);
}

TEST(DnnGraph, FaultLadderEngagesDuringCompiledTrainingStep) {
  // A 2x2 mesh and a mesh-executable conv: under a persistent DMA fault
  // plan the forward degrades to host GEMM (recorded fallback, still
  // correct) while backward-filter — which has no host route for
  // mesh-executable shapes — surfaces kDeviceFault as a BackendError,
  // and the resilient trainer rolls back to the checkpoint: every rung
  // of the ladder under one compiled step.
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;

  Network net;
  util::Rng rng(77);
  const auto shape = conv::ConvShape::from_output(4, 2, 2, 3, 4, 2, 2);
  net.emplace<Convolution>(shape, rng);
  net.emplace<Relu>();
  net.emplace<FullyConnected>(3 * 4 * 2, 3, rng);
  net.emplace<Softmax>();
  CompileOptions options;
  options.spec = &spec;
  net.compile({4, 5, 2, 4}, options);

  Sgd sgd(0.01);
  Trainer trainer(net, sgd);
  trainer.enable_checkpointing(testing::TempDir() + "graph_ladder_ckpt.bin",
                               /*interval=*/1);

  Batch batch;
  batch.images = tensor::Tensor({4, 5, 2, 4});
  util::Rng data_rng(88);
  data_rng.fill_uniform(batch.images.data(), -1, 1);
  batch.labels = {0, 1, 2, 0};

  // Clean step: the mesh route works, nothing rolls back. (The FC's
  // host-territory shapes record designed host reroutes even now —
  // capture the baseline so the fault run's *additional* degradations
  // are what's measured.)
  Trainer::ResilientStep clean = trainer.train_step_resilient(batch);
  EXPECT_FALSE(clean.rolled_back);
  const std::uint64_t clean_fallbacks =
      net.context()->fault_counters().host_fallbacks;

  // Persistent faults: every DMA attempt fails.
  sim::FaultPlan plan;
  plan.fail_first_dma = 1u << 20;
  net.context()->set_fault_plan(&plan);
  net.context()->set_retry_policy(2, 8);

  Trainer::ResilientStep faulty = trainer.train_step_resilient(batch);
  EXPECT_TRUE(faulty.rolled_back);
  EXPECT_GT(net.context()->fault_counters().host_fallbacks, clean_fallbacks);

  // Clearing the plan heals the step.
  net.context()->set_fault_plan(nullptr);
  Trainer::ResilientStep healed = trainer.train_step_resilient(batch);
  EXPECT_FALSE(healed.rolled_back);
}

TEST(DnnGraph, BackendContextRejectedConfigurationThrows) {
  // A setting the API rejects must throw, not return as if applied.
  BackendContext context;
  try {
    context.set_retry_policy(/*max_attempts=*/0, /*backoff_cycles=*/16);
    ADD_FAILURE() << "a zero-attempt retry policy was accepted";
  } catch (const BackendError& e) {
    EXPECT_EQ(e.status(), api::Status::kBadParam);
    EXPECT_NE(std::string(e.what()).find("set_retry_policy"),
              std::string::npos);
  }
  EXPECT_NO_THROW(context.set_retry_policy(2, 8));
  EXPECT_NO_THROW(context.set_fault_plan(nullptr));
  EXPECT_NO_THROW(context.set_event_tracer(nullptr));
}

TEST(DnnGraph, EvaluateRestoresTrainingModeWithDropout) {
  // Regression: evaluate() used to leave the network in eval mode, so
  // every subsequent training step silently ran without dropout. The
  // RAII guard restores the prior mode, and eval itself is
  // deterministic (dropout off): two identical datasets score equal.
  auto make_net = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(11);
    net->emplace<FullyConnected>(8 * 8, 16, rng);
    net->emplace<Relu>();
    net->emplace<Dropout>(0.5, 123);
    net->emplace<FullyConnected>(16, 4, rng);
    net->emplace<Softmax>();
    return net;
  };
  auto net = make_net();
  net->compile({8, 8, 1, 5});
  Sgd sgd(0.05);
  Trainer trainer(*net, sgd);

  net->set_training(true);
  ASSERT_TRUE(net->training());
  SyntheticBars data_a(8, 4, 0.1, 555);
  SyntheticBars data_b(8, 4, 0.1, 555);
  const double acc_a = trainer.evaluate(data_a, 5, 3);
  EXPECT_TRUE(net->training());  // restored, not left in eval
  const double acc_b = trainer.evaluate(data_b, 5, 3);
  EXPECT_TRUE(net->training());
  EXPECT_EQ(acc_a, acc_b);  // dropout was really off during eval

  // The guard restores eval mode too, if that's what the caller had.
  net->set_training(false);
  trainer.evaluate(data_a, 5, 1);
  EXPECT_FALSE(net->training());
}

TEST(DnnGraph, DataParallelReplicasShareOneBackendContext) {
  const auto make_replica = [] {
    auto net = std::make_unique<Network>();
    util::Rng rng(31);
    conv::ConvShape shape;
    shape.batch = 3;
    shape.ni = 1;
    shape.no = 4;
    shape.ri = 8;
    shape.ci = 8;
    shape.kr = 3;
    shape.kc = 3;
    net->emplace<Convolution>(shape, rng);
    net->emplace<Relu>();
    net->emplace<FullyConnected>(6 * 6 * 4, 4, rng);
    net->emplace<Softmax>();
    return net;
  };
  parallel::HierarchicalTrainer dp(parallel::HierTopology::grid(2, 1),
                                   make_replica, 0.05);
  dp.compile({8, 8, 1, 3});

  ASSERT_NE(dp.shared_context(), nullptr);
  EXPECT_EQ(dp.replica(0).context(), dp.shared_context());
  EXPECT_EQ(dp.replica(1).context(), dp.shared_context());
  EXPECT_TRUE(dp.replica(0).compiled());
  EXPECT_TRUE(dp.replica(1).compiled());

  SyntheticBars data(8, 4, 0.1, 99);
  std::vector<Batch> shards{data.sample(3), data.sample(3)};
  const auto result = dp.train_step(shards);
  EXPECT_TRUE(std::isfinite(result.loss));
  EXPECT_EQ(result.live_nodes, 2);
  // Both replicas dispatched through the one context: its serve ledger
  // saw traffic, and lockstep updates kept them bit-identical.
  EXPECT_GT(dp.shared_context()->plan_cache_counters().hits, 0u);
  EXPECT_EQ(dp.max_replica_divergence(), 0.0);
}

}  // namespace
}  // namespace swdnn::dnn
