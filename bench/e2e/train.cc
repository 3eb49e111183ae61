// Training workloads: train_hier and train_mesh.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>

#include "bench.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/dropout.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/loss.h"
#include "src/dnn/network.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/sgd.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/runtime/task_pool.h"
#include "src/sim/trace.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::e2e {
namespace {

constexpr std::int64_t kBatch = 8;
constexpr int kGateSteps = 3;
constexpr int kBatchPool = 16;
constexpr double kLearningRate = 0.01;
constexpr double kMomentum = 0.9;

using Factory = std::function<std::unique_ptr<dnn::Network>()>;

conv::ConvShape conv_shape(std::int64_t ni, std::int64_t no, std::int64_t r,
                           std::int64_t k) {
  conv::ConvShape s;
  s.batch = kBatch;
  s.ni = ni;
  s.no = no;
  s.ri = r;
  s.ci = r;
  s.kr = k;
  s.kc = k;
  return s;
}

/// The bench_graph_exec layer stack on one input channel: two host
/// im2col convolutions feed two FC layers, which the compiled graph
/// dispatches through the API (where the chooser maps them to pgrain).
std::unique_ptr<dnn::Network> make_host_model() {
  auto net = std::make_unique<dnn::Network>();
  util::Rng rng(1234);  // fixed: every replica and twin is identical
  net->emplace<dnn::Convolution>(conv_shape(1, 20, 28, 5), rng,
                                 dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);  // 24x24x20 -> 12x12x20
  net->emplace<dnn::Convolution>(conv_shape(20, 28, 12, 3), rng,
                                 dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);  // 10x10x28 -> 5x5x28
  net->emplace<dnn::FullyConnected>(5 * 5 * 28, 50, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::Dropout>(0.5, 99);
  net->emplace<dnn::FullyConnected>(50, 10, rng);
  return net;
}

const std::vector<std::int64_t> kHostInput = {28, 28, 1, kBatch};

std::vector<Dispatch> host_model_dispatches(double replicas) {
  std::vector<Dispatch> out;
  for (const conv::ConvShape& s :
       {conv_shape(1, 20, 28, 5), conv_shape(20, 28, 12, 3)}) {
    for (Pass p : {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter})
      out.push_back({s, p, /*api=*/false, replicas});
  }
  for (const conv::ConvShape& s :
       {dnn::BackendContext::fc_shape(700, 50, kBatch),
        dnn::BackendContext::fc_shape(50, 10, kBatch)}) {
    for (Pass p : {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter})
      out.push_back({s, p, /*api=*/true, replicas});
  }
  return out;
}

/// Every heavy op on the simulated mesh: two kSimulatedMesh convs and
/// an FC, all dispatched through the API by the compiled graph.
std::unique_ptr<dnn::Network> make_mesh_model() {
  auto net = std::make_unique<dnn::Network>();
  util::Rng rng(4321);
  net->emplace<dnn::Convolution>(conv_shape(32, 32, 10, 3), rng,
                                 dnn::ConvBackend::kSimulatedMesh);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::Convolution>(conv_shape(32, 32, 8, 3), rng,
                                 dnn::ConvBackend::kSimulatedMesh);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);  // 6x6x32 -> 3x3x32
  net->emplace<dnn::FullyConnected>(3 * 3 * 32, 10, rng);
  return net;
}

const std::vector<std::int64_t> kMeshInput = {10, 10, 32, kBatch};

std::vector<Dispatch> mesh_model_dispatches() {
  std::vector<Dispatch> out;
  for (const conv::ConvShape& s :
       {conv_shape(32, 32, 10, 3), conv_shape(32, 32, 8, 3),
        dnn::BackendContext::fc_shape(288, 10, kBatch)}) {
    for (Pass p : {Pass::kForward, Pass::kBackwardData, Pass::kBackwardFilter})
      out.push_back({s, p, /*api=*/true, 1.0});
  }
  return out;
}

/// Oriented-bar images from the workload seed (train_hier).
std::vector<dnn::Batch> bar_batches(std::uint64_t seed, int count) {
  dnn::SyntheticBars data(28, 10, 0.1, seed);
  std::vector<dnn::Batch> out;
  for (int i = 0; i < count; ++i) out.push_back(data.sample(kBatch));
  return out;
}

/// Uniform 32-channel activations with random labels (train_mesh).
std::vector<dnn::Batch> random_batches(std::uint64_t seed, int count) {
  util::Rng rng(seed);
  std::vector<dnn::Batch> out;
  for (int i = 0; i < count; ++i) {
    dnn::Batch b;
    b.images = tensor::Tensor(kMeshInput);
    rng.fill_uniform(b.images.data(), -1, 1);
    for (std::int64_t j = 0; j < kBatch; ++j) {
      b.labels.push_back(static_cast<int>(rng.uniform_int(0, 9)));
    }
    out.push_back(std::move(b));
  }
  return out;
}

std::uint64_t params_digest(dnn::Network& net) {
  std::uint64_t h = 1469598103934665603ull;
  for (const dnn::ParamGrad& p : net.params()) {
    h = digest(p.param->data().data(),
               static_cast<std::size_t>(p.param->size()), h);
  }
  return h;
}

bool same_loss(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

/// Trainer::train_step split into the four public calls it makes, each
/// under its own span; the logits copy matches train_step's.
dnn::LossResult traced_step(dnn::Network& net, dnn::Sgd& opt,
                            const dnn::Batch& batch, SpanRecorder& rec) {
  tensor::Tensor logits;
  {
    ScopedSpan s(rec, "dnn.forward");
    logits = net.forward(batch.images);
  }
  dnn::LossResult loss;
  {
    ScopedSpan s(rec, "dnn.loss");
    loss = dnn::softmax_cross_entropy(logits, batch.labels);
  }
  {
    ScopedSpan s(rec, "dnn.backward");
    net.backward(loss.d_logits);
  }
  {
    ScopedSpan s(rec, "dnn.sgd");
    opt.step(net.params());
  }
  return loss;
}

/// The per-op numbers every training run shares.
struct StepLog {
  std::vector<double> ms;
  double last_loss = 0;
  bool finite = true;
};

/// Runs `step` until `seconds` pass, or `smoke_steps` times when > 0.
template <typename F>
void timed_steps(double seconds, int smoke_steps, std::int64_t first_step,
                 SpanRecorder& rec, Result& result, StepLog& log, F&& step) {
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = first_step;; ++i) {
    if (smoke_steps > 0 ? i - first_step >= smoke_steps
                        : seconds_since(start) >= seconds) {
      break;
    }
    rec.set_step(i);
    const Clock::time_point t0 = Clock::now();
    ++result.attempted;
    try {
      ScopedSpan span(rec, "train.step");
      log.last_loss = step(i);
    } catch (const std::exception& e) {
      ++result.failed;
      std::fprintf(stderr, "step %lld failed: %s\n", static_cast<long long>(i),
                   e.what());
      continue;
    }
    log.ms.push_back(seconds_since(t0) * 1e3);
    log.finite = log.finite && std::isfinite(log.last_loss);
  }
}

void report_steps(const StepLog& log, std::int64_t samples_per_step,
                  Result& r) {
  report_latency(log.ms, r);
  double total_ms = 0;
  for (double v : log.ms) total_ms += v;
  r.info["train.samples_per_s"] =
      total_ms > 0 ? static_cast<double>(samples_per_step) *
                         static_cast<double>(log.ms.size()) / (total_ms / 1e3)
                   : 0;
  r.info["train.final_loss"] = log.last_loss;
  r.gate(log.finite, "training loss stayed finite");
}

/// dnn.* per-layer numbers from traced steps: each public call's share
/// of the "train.step" spans.
void report_dnn_spans(const SpanRecorder& rec, Result& r) {
  const double step_ms = rec.total_ms("train.step");
  if (step_ms <= 0) return;
  r.metrics["dnn.fwd_share"] = rec.total_ms("dnn.forward") / step_ms;
  r.metrics["dnn.loss_share"] = rec.total_ms("dnn.loss") / step_ms;
  r.metrics["dnn.bwd_share"] = rec.total_ms("dnn.backward") / step_ms;
  r.metrics["dnn.opt_share"] = rec.total_ms("dnn.sgd") / step_ms;
}

/// Compile time, arena footprint and EventTracer layer-span coverage
/// of one more compiled twin, stepped a few times with the tracer on.
void report_compile_and_node_spans(const Factory& factory,
                                   const std::vector<std::int64_t>& dims,
                                   const std::vector<dnn::Batch>& batches,
                                   Result& r) {
  auto net = factory();
  sim::EventTracer tracer;
  dnn::CompileOptions options;
  options.tracer = &tracer;
  const Clock::time_point c0 = Clock::now();
  const dnn::CompiledStats& stats = net->compile(dims, options);
  r.info["dnn.compile_ms"] = seconds_since(c0) * 1e3;
  r.metrics["dnn.compile_share"] =
      r.info["dnn.compile_ms"] / (r.metrics["setup_s"] * 1e3);
  r.metrics["tensor.arena_peak_bytes"] =
      static_cast<double>(stats.arena_peak_bytes);
  dnn::Sgd opt(kLearningRate, kMomentum);
  double layer_ns = 0, pass_ns = 0;
  for (int i = 0; i < 3; ++i) {
    tracer.clear();
    const dnn::Batch& b = batches[static_cast<std::size_t>(i)];
    const Clock::time_point t0 = Clock::now();
    tensor::Tensor logits = net->forward(b.images);
    const dnn::LossResult loss = dnn::softmax_cross_entropy(logits, b.labels);
    const double fwd_ns = seconds_since(t0) * 1e9;
    const Clock::time_point t1 = Clock::now();
    net->backward(loss.d_logits);
    pass_ns += fwd_ns + seconds_since(t1) * 1e9;
    opt.step(net->params());
    layer_ns += layer_span_ns(tracer);
  }
  r.metrics["dnn.node_span_cover"] = pass_ns > 0 ? layer_ns / pass_ns : 0;
}

void report_context(dnn::BackendContext& ctx, double ops, Result& r) {
  r.metrics["api.plan_cache.hit_ratio"] = hit_ratio(ctx.plan_cache_counters());
  r.metrics["api.host_fallbacks_per_op"] =
      ops > 0 ? static_cast<double>(ctx.fault_counters().host_fallbacks) / ops
              : 0.0;
}

/// train_mesh: one compiled network under Trainer.
Result run_single(const Options& o, const Factory& factory,
                  const std::vector<std::int64_t>& dims,
                  const std::vector<dnn::Batch>& batches,
                  const std::vector<Dispatch>& dispatches) {
  Result r;
  const auto batch_at = [&](std::int64_t i) -> const dnn::Batch& {
    return batches[static_cast<std::size_t>(i % kBatchPool)];
  };

  // Gate: the first steps of the compiled network match its eager twin
  // bit for bit (loss and every parameter).
  {
    auto compiled = factory();
    auto eager = factory();
    compiled->compile(dims);
    eager->compile(dims);
    eager->set_run_eager(true);
    dnn::Sgd opt_c(kLearningRate, kMomentum), opt_e(kLearningRate, kMomentum);
    dnn::Trainer tc(*compiled, opt_c), te(*eager, opt_e);
    bool same = true;
    for (int i = 0; i < kGateSteps; ++i) {
      same = same && same_loss(tc.train_step(batch_at(i)).loss,
                               te.train_step(batch_at(i)).loss);
    }
    r.gate(same && params_digest(*compiled) == params_digest(*eager),
           "compiled steps match the eager twin bitwise");
  }

  // Set-up: build, compile (plan warm-up, autotune), one warm-up step.
  std::unique_ptr<dnn::Network> net;
  std::unique_ptr<dnn::Sgd> opt;
  std::unique_ptr<dnn::Trainer> trainer;
  const auto teardown = [&] {
    trainer.reset();
    opt.reset();
    net.reset();
  };
  r.metrics["setup_s"] = median_setup_seconds(o.smoke, teardown, [&] {
    net = factory();
    net->compile(dims);
    opt = std::make_unique<dnn::Sgd>(kLearningRate, kMomentum);
    trainer = std::make_unique<dnn::Trainer>(*net, *opt);
    trainer->train_step(batch_at(0));
  });

  SpanRecorder rec(o.workload);
  const int smoke = o.smoke ? 3 : 0;
  StepLog plain;
  const double plain_s = o.trace ? o.seconds / 2 : o.seconds;
  const std::uint64_t allocs0 = tensor::allocation_count();
  timed_steps(plain_s, smoke, 1, rec, r, plain, [&](std::int64_t i) {
    return trainer->train_step(batch_at(i)).loss;
  });
  const double allocs = static_cast<double>(tensor::allocation_count() -
                                            allocs0);
  report_steps(plain, kBatch, r);
  r.info["train.param_digest_lo32"] =
      static_cast<double>(params_digest(*net) & 0xffffffffu);
  if (!o.trace) return r;

  rec.set_enabled(true);
  StepLog traced;
  timed_steps(o.seconds / 2, smoke,
              static_cast<std::int64_t>(plain.ms.size()) + 1, rec, r, traced,
              [&](std::int64_t i) {
                return traced_step(*net, *opt, batch_at(i), rec).loss;
              });
  rec.set_enabled(false);
  const double p50 = quantile(plain.ms, 0.5);
  report_dnn_spans(rec, r);
  r.metrics["tensor.allocs_per_op"] =
      plain.ms.empty() ? 0 : allocs / static_cast<double>(plain.ms.size());
  report_context(*net->context(), static_cast<double>(r.attempted), r);
  report_compile_and_node_spans(factory, dims, batches, r);
  replay_layers(dispatches, p50, /*time_api=*/true, o.smoke ? 1 : 5, r);
  report_trace(rec, o, "train.step", p50, quantile(traced.ms, 0.5), r);
  return r;
}

// --- train_hier ---------------------------------------------------------------

constexpr int kHierRanks = 4;

std::vector<std::vector<dnn::Batch>> hier_shards(std::uint64_t seed,
                                                 int ranks) {
  const std::vector<dnn::Batch> flat = bar_batches(seed, kBatchPool * ranks);
  std::vector<std::vector<dnn::Batch>> out(kBatchPool);
  for (int i = 0; i < kBatchPool; ++i) {
    for (int r = 0; r < ranks; ++r) {
      out[static_cast<std::size_t>(i)].push_back(
          flat[static_cast<std::size_t>(i * ranks + r)]);
    }
  }
  return out;
}

std::unique_ptr<parallel::HierarchicalTrainer> make_hier(
    const parallel::HierTopology& topo, bool compile) {
  auto t = std::make_unique<parallel::HierarchicalTrainer>(
      topo, make_host_model, kLearningRate, kMomentum);
  if (compile) t->compile(kHostInput);
  return t;
}

}  // namespace

Result run_train_mesh(const Options& o) {
  return run_single(o, make_mesh_model, kMeshInput,
                    random_batches(o.seed, kBatchPool),
                    mesh_model_dispatches());
}

Result run_train_hier(const Options& o) {
  Result r;
  const auto shards = hier_shards(o.seed, kHierRanks);
  const auto shards_at = [&](std::int64_t i) -> const std::vector<dnn::Batch>& {
    return shards[static_cast<std::size_t>(i % kBatchPool)];
  };
  parallel::HierStepOptions step_options;
  step_options.exchange = parallel::ExchangeMode::kHierarchical;
  step_options.overlap = true;
  const parallel::HierTopology grid = parallel::HierTopology::grid(2, 2);

  // Gate: compiled replicas match the eager (uncompiled) replica path
  // bit for bit over the first steps.
  {
    auto compiled = make_hier(grid, true);
    auto eager = make_hier(grid, false);
    bool same = true;
    for (int i = 0; i < kGateSteps; ++i) {
      same = same &&
             same_loss(compiled->train_step(shards_at(i), step_options).loss,
                       eager->train_step(shards_at(i), step_options).loss);
    }
    r.gate(same && params_digest(compiled->replica(0)) ==
                       params_digest(eager->replica(0)),
           "compiled hierarchical steps match the eager replicas bitwise");
    r.gate(compiled->max_replica_divergence() == 0.0,
           "replicas stay in lockstep");
  }

  std::unique_ptr<parallel::HierarchicalTrainer> trainer;
  const auto teardown = [&] { trainer.reset(); };
  r.metrics["setup_s"] = median_setup_seconds(o.smoke, teardown, [&] {
    trainer = make_hier(grid, true);
    trainer->train_step(shards_at(0), step_options);
  });

  SpanRecorder rec(o.workload);
  const int smoke = o.smoke ? 3 : 0;
  StepLog plain;
  parallel::HierStepReport last;
  const auto step = [&](std::int64_t i) {
    ScopedSpan s(rec, "parallel.train_step");
    last = trainer->train_step(shards_at(i), step_options);
    return last.loss;
  };
  const double plain_s = o.trace ? o.seconds / 2 : o.seconds;
  const std::uint64_t allocs0 = tensor::allocation_count();
  timed_steps(plain_s, smoke, 1, rec, r, plain, step);
  const double allocs = static_cast<double>(tensor::allocation_count() -
                                            allocs0);
  report_steps(plain, kBatch * kHierRanks, r);
  r.gate(trainer->max_replica_divergence() == 0.0,
         "replicas stay in lockstep after the timed steps");
  r.info["train.param_digest_lo32"] =
      static_cast<double>(params_digest(trainer->replica(0)) & 0xffffffffu);
  r.info["parallel.model.exchange_us"] = last.exchange_hier.total() * 1e6;
  if (!o.trace) return r;

  rec.set_enabled(true);
  StepLog traced;
  timed_steps(o.seconds / 2, smoke,
              static_cast<std::int64_t>(plain.ms.size()) + 1, rec, r, traced,
              step);
  rec.set_enabled(false);
  const double p50 = quantile(plain.ms, 0.5);
  const double sps_grid = r.info["train.samples_per_s"];

  // Scaling: the same model and shard batch on one replica.
  {
    auto single = make_hier(parallel::HierTopology::grid(1, 1), true);
    std::vector<dnn::Batch> one(1);
    std::vector<double> ms;
    const Clock::time_point start = Clock::now();
    for (std::int64_t i = 0;
         o.smoke ? i < 3 : seconds_since(start) < o.seconds / 4; ++i) {
      one[0] = shards_at(i)[0];
      const Clock::time_point t0 = Clock::now();
      single->train_step(one, step_options);
      if (i > 0) ms.push_back(seconds_since(t0) * 1e3);
    }
    double total = 0;
    for (double v : ms) total += v;
    const double sps_single =
        total > 0 ? kBatch * static_cast<double>(ms.size()) / (total / 1e3)
                  : 0;
    // The ideal is one replica's rate per host lane the replicas can
    // run on at once.
    const int lanes = std::min(kHierRanks, runtime::host_threads());
    r.metrics["parallel.scaling_eff"] =
        sps_single > 0 ? sps_grid / (lanes * sps_single) : 0;
  }
  r.metrics["parallel.exchange_mb_per_step"] =
      static_cast<double>(last.exchange_bytes) / 1e6;
  r.metrics["parallel.buckets"] = static_cast<double>(trainer->buckets().size());
  r.metrics["parallel.model.overlap_speedup"] = last.overlap_speedup();
  r.metrics["tensor.allocs_per_op"] =
      plain.ms.empty() ? 0 : allocs / static_cast<double>(plain.ms.size());
  report_context(*trainer->shared_context(), static_cast<double>(r.attempted),
                 r);

  // Layer split of one replica's step, on a twin network with the same
  // model and shard batch (the trainer's step is one public call).
  {
    auto net = make_host_model();
    net->compile(kHostInput);
    dnn::Sgd opt(kLearningRate, kMomentum);
    SpanRecorder twin(o.workload + ".replica");
    twin.set_enabled(true);
    for (int i = 0; i < (o.smoke ? 2 : 20); ++i) {
      ScopedSpan span(twin, "train.step");
      traced_step(*net, opt, shards_at(i)[0], twin);
    }
    report_dnn_spans(twin, r);
  }
  report_compile_and_node_spans(make_host_model, kHostInput, shards_at(0), r);
  replay_layers(host_model_dispatches(kHierRanks), p50, /*time_api=*/true,
                o.smoke ? 1 : 5, r);
  report_trace(rec, o, "train.step", p50, quantile(traced.ms, 0.5), r);
  return r;
}

}  // namespace swdnn::e2e
