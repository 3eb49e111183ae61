// serve: an open loop against the inference server.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <random>
#include <thread>

#include "bench.h"
#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/serve/server.h"
#include "src/sim/trace.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::e2e {
namespace {

using namespace std::chrono_literals;

/// A fifth of what the server sustains on one CPU (near 500 req/s), so
/// it keeps up while the shared host runs two to three times slower. At
/// 250 req/s such a spell queued requests for hundreds of milliseconds,
/// and some missed the 1 s deadline. Most requests flush alone on the
/// budget.
constexpr double kRateRps = 100.0;
constexpr int kMaxBatch = 4;
constexpr int kTenants = 4;
constexpr int kSamplePool = 64;
const std::vector<std::int64_t> kSampleDims = {8, 8, 3};

conv::ConvShape serve_conv(std::int64_t batch) {
  conv::ConvShape c;
  c.batch = batch;
  c.ni = 3;
  c.no = 5;
  c.ri = 8;
  c.ci = 8;
  c.kr = 3;
  c.kc = 3;
  return c;
}

/// The bench_serving model: a host conv feeding an FC, which the
/// compiled replica dispatches through the API onto the mesh.
std::unique_ptr<dnn::Network> make_model(std::int64_t batch) {
  auto net = std::make_unique<dnn::Network>();
  util::Rng rng(777);  // fixed: replicas and the golden net are identical
  net->emplace<dnn::Convolution>(serve_conv(batch), rng,
                                 dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(6 * 6 * 5, 10, rng);
  net->emplace<dnn::Softmax>();
  return net;
}

/// The deadline and queue bounds sit far above what the open loop needs
/// (p90 is a few ms, and a 1 s stall queues about 100 requests), so a
/// stall of the shared host shows up as latency, not as failed requests.
serve::ServerConfig server_config() {
  serve::ServerConfig config;
  config.max_batch = kMaxBatch;
  config.batch_budget = 500us;
  config.default_deadline = 1s;
  config.num_replicas = 2;
  config.max_queue = 4096;
  config.max_queue_per_tenant = 1024;
  return config;
}

struct Request {
  Clock::time_point due;
  Clock::time_point submitted;
  int sample = 0;
  std::future<serve::ServeResult> future;
};

struct PhaseLog {
  std::vector<double> latency_ms;   ///< OK requests, from their due time
  std::vector<double> lateness_ms;  ///< submit time minus due time
  std::uint64_t issued = 0;
  std::uint64_t not_ok = 0;
  bool bitwise = true;
};

/// Open loop at kRateRps for `seconds` (or 20 requests in smoke mode):
/// Poisson arrivals drawn from `arrivals`, as independent clients send
/// them, so some requests meet an idle server and some share a batch.
/// A request is due at its arrival time whatever happened before it,
/// and its latency counts from that due time.
PhaseLog open_loop(serve::InferenceServer& server, double seconds, bool smoke,
                   util::Rng& arrivals,
                   const std::vector<tensor::Tensor>& samples,
                   const std::vector<tensor::Tensor>& golden,
                   SpanRecorder& rec) {
  const std::uint64_t count =
      smoke ? 20
            : static_cast<std::uint64_t>(std::llround(seconds * kRateRps));
  std::vector<Request> requests(count);
  std::exponential_distribution<double> gap(kRateRps);
  const Clock::time_point start = Clock::now() + 1ms;
  double due_s = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    Request& q = requests[i];
    due_s += gap(arrivals.engine());
    q.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s));
    q.sample = static_cast<int>(i % kSamplePool);
    std::this_thread::sleep_until(q.due);
    rec.set_step(static_cast<std::int64_t>(i));
    ScopedSpan span(rec, "serve.submit");
    q.submitted = Clock::now();
    q.future = server.submit(static_cast<int>(i % kTenants),
                             samples[static_cast<std::size_t>(q.sample)]);
  }
  PhaseLog log;
  log.issued = count;
  for (Request& q : requests) {
    const serve::ServeResult result = q.future.get();
    const double late =
        std::chrono::duration<double, std::milli>(q.submitted - q.due).count();
    log.lateness_ms.push_back(late);
    if (result.status != serve::ServeStatus::kOk) {
      ++log.not_ok;
      continue;
    }
    const double latency = late + result.latency_ms;
    log.latency_ms.push_back(latency);
    log.bitwise = log.bitwise &&
                  same_bits(result.output,
                            golden[static_cast<std::size_t>(q.sample)]);
    // The request span splits into the generator's lateness and the
    // server's own submit-to-resolution time.
    const Clock::time_point resolved =
        q.submitted + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              result.latency_ms));
    const int id = rec.add("serve.request", q.due, resolved);
    rec.add("loadgen.late", q.due, q.submitted, id);
    rec.add("serve.server", q.submitted, resolved, id);
  }
  return log;
}

}  // namespace

Result run_serve(const Options& o) {
  Result r;
  util::Rng rng(o.seed);
  std::vector<tensor::Tensor> samples, golden;
  {
    // Golden answers: a batch-1 network from the same factory, eager.
    auto eager = make_model(1);
    eager->set_training(false);
    std::vector<std::int64_t> dims = kSampleDims;
    dims.push_back(1);
    for (int i = 0; i < kSamplePool; ++i) {
      tensor::Tensor s(kSampleDims);
      rng.fill_uniform(s.data(), -1, 1);
      tensor::Tensor input(dims);
      std::copy(s.data().begin(), s.data().end(), input.data().begin());
      golden.push_back(eager->forward(input));
      samples.push_back(std::move(s));
    }
  }

  // Set-up: compile the replicas, start the serving threads, and answer
  // one warm-up request.
  std::unique_ptr<serve::InferenceServer> server;
  const auto teardown = [&] { server.reset(); };
  r.metrics["setup_s"] = median_setup_seconds(o.smoke, teardown, [&] {
    server = std::make_unique<serve::InferenceServer>(make_model, kSampleDims,
                                                      server_config());
    server->submit(0, samples[0]).get();
  });
  const serve::ServingCounters before = server->counters();

  SpanRecorder rec(o.workload);
  const std::uint64_t allocs0 = tensor::allocation_count();
  const PhaseLog plain = open_loop(*server,
                                   o.trace ? o.seconds / 2 : o.seconds,
                                   o.smoke, rng, samples, golden, rec);
  const double allocs = static_cast<double>(tensor::allocation_count() -
                                            allocs0);
  const serve::ServingCounters after = server->counters();
  r.attempted += plain.issued;
  r.failed += plain.not_ok;
  r.gate(plain.bitwise, "every OK result equals the eager forward bitwise");
  report_latency(plain.latency_ms, r);
  r.info["serve.requests"] = static_cast<double>(plain.issued);
  r.info["serve.rate_rps"] = kRateRps;
  r.info["serve.rejected"] =
      static_cast<double>(after.rejected() - before.rejected());
  r.info["serve.shed"] = static_cast<double>(after.shed - before.shed);
  r.info["serve.deadline_missed"] =
      static_cast<double>(after.deadline_missed - before.deadline_missed);
  r.info["serve.failed"] = static_cast<double>(after.failed - before.failed);
  if (!o.trace) return r;

  rec.set_enabled(true);
  const PhaseLog traced =
      open_loop(*server, o.seconds / 2, o.smoke, rng, samples, golden, rec);
  rec.set_enabled(false);
  r.attempted += traced.issued;
  r.failed += traced.not_ok;
  r.gate(traced.bitwise, "every OK traced result equals the eager forward");

  auto& m = r.metrics;
  const double p50 = quantile(plain.latency_ms, 0.5);
  const double batches = static_cast<double>(after.batches - before.batches);
  const double requests =
      static_cast<double>(after.batched_requests - before.batched_requests);
  r.info["serve.p99_ms"] = quantile(plain.latency_ms, 0.99);
  m["serve.p99_over_p50"] = r.info["serve.p99_ms"] / p50;
  m["serve.batch_occupancy"] = batches > 0 ? requests / batches : 0;
  m["serve.full_flush_share"] =
      batches > 0
          ? static_cast<double>(after.full_flushes - before.full_flushes) /
                batches
          : 0;
  m["serve.not_ok"] = static_cast<double>(plain.not_ok + traced.not_ok);
  r.info["loadgen.lateness_ms.p99"] = quantile(plain.lateness_ms, 0.99);
  r.info["loadgen.lateness_ms.max"] = quantile(plain.lateness_ms, 1.0);
  m["loadgen.lateness_share.p99"] = r.info["loadgen.lateness_ms.p99"] / p50;
  m["loadgen.lateness_share.max"] = r.info["loadgen.lateness_ms.max"] / p50;
  m["tensor.allocs_per_op"] =
      plain.issued > 0 ? allocs / static_cast<double>(plain.issued) : 0;
  m["tensor.arena_peak_bytes"] =
      static_cast<double>(server->compiled_stats().arena_peak_bytes);
  m["api.plan_cache.hit_ratio"] =
      hit_ratio(server->context().plan_cache_counters());
  m["api.host_fallbacks_per_op"] =
      static_cast<double>(after.host_fallbacks - before.host_fallbacks) /
      static_cast<double>(plain.issued);
  server.reset();

  // One replica's forward at max_batch, replayed: the batch execution
  // time inside every request's latency. Per-layer replays count per
  // executed batch, so they do not depend on how requests batched.
  {
    auto net = make_model(kMaxBatch);
    sim::EventTracer tracer;
    dnn::CompileOptions options;
    options.tracer = &tracer;
    const Clock::time_point c0 = Clock::now();
    net->compile({8, 8, 3, kMaxBatch}, options);
    r.info["dnn.compile_ms"] = seconds_since(c0) * 1e3;
    m["dnn.compile_share"] =
        r.info["dnn.compile_ms"] / (m["setup_s"] * 1e3);
    net->set_training(false);
    tensor::Tensor batch({8, 8, 3, kMaxBatch});
    util::Rng(o.seed).fill_uniform(batch.data(), -1, 1);
    std::vector<double> ms;
    double layer_ns = 0, fwd_ns = 0;
    for (int i = 0; i < (o.smoke ? 5 : 200); ++i) {
      tracer.clear();
      const Clock::time_point t0 = Clock::now();
      net->forward(batch);
      const double sec = seconds_since(t0);
      ms.push_back(sec * 1e3);
      fwd_ns += sec * 1e9;
      layer_ns += layer_span_ns(tracer);
    }
    const double exec_ms = quantile(ms, 0.5);
    r.info["serve.batch_exec_ms"] = exec_ms;
    m["dnn.fwd_share"] = exec_ms / p50;
    m["serve.wait_share"] = (p50 - exec_ms) / p50;
    m["dnn.node_span_cover"] = fwd_ns > 0 ? layer_ns / fwd_ns : 0;
  }
  replay_layers(
      {{serve_conv(kMaxBatch), Pass::kForward, /*api=*/false, 1.0},
       {dnn::BackendContext::fc_shape(6 * 6 * 5, 10, kMaxBatch),
        Pass::kForward, /*api=*/true, 1.0}},
      p50, /*time_api=*/true, o.smoke ? 1 : 20, r);
  report_trace(rec, o, "serve.request", p50, quantile(traced.latency_ms, 0.5),
               r);
  return r;
}

}  // namespace swdnn::e2e
