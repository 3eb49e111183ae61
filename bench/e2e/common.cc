// Shared pieces of the driver: statistics, the span recorder, and the
// layer replay behind the api.*, conv.*, sim.* and perf.* metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench.h"
#include "src/api/swdnn_api.h"
#include "src/arch/spec.h"
#include "src/conv/backward.h"
#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/sim/executor.h"
#include "src/sim/trace.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"

namespace swdnn::e2e {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The shared host this benchmark was built on switches between two
// speeds: for spells of a few to over twenty seconds, a fixed loop runs
// about 1.65 times slower, some 40% of the time. A run's median then
// lands on either speed, and ten runs of the same code spread by up to
// 44%. Host slowness only adds time, so the 10th percentile, which needs
// just a tenth of the run at full speed, is the gated number; the median
// and the tail stay in info.
void report_latency(const std::vector<double>& ms, Result& result) {
  result.metrics["latency_ms.p10"] = quantile(ms, 0.1);
  result.info["latency_ms.p50"] = quantile(ms, 0.5);
  result.info["latency_ms.p90"] = quantile(ms, 0.9);
  result.info["latency_ms.samples"] = static_cast<double>(ms.size());
}

std::uint64_t digest(const double* data, std::size_t count,
                     std::uint64_t seed) {
  std::uint64_t h = seed;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(double) * static_cast<std::size_t>(a.size())) == 0;
}

double hit_ratio(const api::PlanCacheCounters& c) {
  const std::uint64_t lookups = c.hits + c.misses;
  return lookups > 0 ? static_cast<double>(c.hits) /
                           static_cast<double>(lookups)
                     : 0.0;
}

double layer_span_ns(const sim::EventTracer& tracer) {
  double ns = 0;
  for (const sim::TraceEvent& e : tracer.events()) {
    if (e.category == "layer") {
      ns += static_cast<double>(e.end_cycle - e.begin_cycle);
    }
  }
  return ns;
}

void report_trace(const SpanRecorder& rec, const Options& options,
                  const std::string& op_span, double plain_p50,
                  double traced_p50, Result& result) {
  result.metrics["trace.overhead_pct"] =
      plain_p50 > 0 ? 100.0 * (traced_p50 - plain_p50) / plain_p50 : 0.0;
  const double cover = rec.child_cover(op_span);
  result.metrics["trace.span_cover"] = cover;
  result.gate(std::abs(cover - 1.0) <= 0.05,
              "child spans cover the " + op_span + " time within 5%");
  const std::string path =
      options.out_dir + "/trace_" + options.workload + ".json";
  result.gate(rec.write_chrome_json(path), "trace file written: " + path);
}

// --- SpanRecorder -----------------------------------------------------------

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::begin(const char* name) {
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : spans_[open_.back()].id;
  span.step = step_;
  span.begin_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch anyway.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

int SpanRecorder::add(const char* name, Clock::time_point begin,
                      Clock::time_point end, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.step = step_;
  span.begin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      begin - origin_)
                      .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double SpanRecorder::total_ms(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanRecorder::child_cover(const std::string& parent) const {
  std::int64_t parent_ns = 0;
  std::int64_t child_ns = 0;
  std::set<int> parents;
  for (const Span& s : spans_) {
    if (s.name == parent) {
      parents.insert(s.id);
      parent_ns += s.end_ns - s.begin_ns;
    }
  }
  for (const Span& s : spans_) {
    if (parents.count(s.parent) != 0) child_ns += s.end_ns - s.begin_ns;
  }
  return parent_ns > 0
             ? static_cast<double>(child_ns) / static_cast<double>(parent_ns)
             : 0.0;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %d, \"parent\": %d, \"step\": %lld, "
                 "\"clock\": \"wall\"}}%s\n",
                 s.name.c_str(), workload_.c_str(),
                 static_cast<double>(s.begin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, s.id,
                 s.parent, static_cast<long long>(s.step),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Layer replay -----------------------------------------------------------

namespace {

const char* pass_name(Pass pass) {
  switch (pass) {
    case Pass::kForward:
      return "fwd";
    case Pass::kBackwardData:
      return "bwd_data";
    case Pass::kBackwardFilter:
      return "bwd_filter";
  }
  return "?";
}

const char* family_name(api::PlanAlgo algo) {
  switch (algo) {
    case api::PlanAlgo::kImageSizeAware:
      return "img";
    case api::PlanAlgo::kBatchSizeAware:
      return "batch";
    case api::PlanAlgo::kFilterGrained:
      return "fgrain";
    case api::PlanAlgo::kPixelGrained:
      return "pgrain";
    case api::PlanAlgo::kDirect:
      return "direct";
    case api::PlanAlgo::kNone:
      break;
  }
  return "host";
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn();
    seconds.push_back(seconds_since(start));
  }
  return quantile(seconds, 0.5);
}

/// Buffers for one shape, filled from a fixed seed: replay inputs are
/// the benchmark's own, so they do not depend on the workload seed.
struct Buffers {
  tensor::Tensor x, w, y, dy, dx, dw;
  explicit Buffers(const conv::ConvShape& shape)
      : x(conv::make_input(shape)),
        w(conv::make_filter(shape)),
        y(conv::make_output(shape)),
        dy(conv::make_output(shape)),
        dx(conv::make_input(shape)),
        dw(conv::make_filter(shape)) {
    util::Rng rng(4242);
    rng.fill_uniform(x.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    rng.fill_uniform(dy.data(), -1, 1);
  }
};

void descriptors(const conv::ConvShape& s, api::TensorDescriptor& x,
                 api::FilterDescriptor& w, api::TensorDescriptor& y) {
  api::set_tensor4d_descriptor(x, s.ri, s.ci, s.ni, s.batch);
  api::set_filter_descriptor(w, s.kr, s.kc, s.ni, s.no);
  api::get_convolution_output_descriptor(x, w, y);
}

}  // namespace

void replay_layers(const std::vector<Dispatch>& dispatches, double op_ms,
                   bool time_api, int reps, Result& result) {
  const arch::Sw26010Spec& spec = arch::default_spec();
  api::Handle* handle = nullptr;
  api::create(&handle);
  api::set_autotune(handle, true);
  conv::SwConvolution sw;
  sim::MeshExecutor exec;

  // Plan warm-up and autotune, as Network::compile does it, on a fresh
  // handle; the private SwConvolution is tuned identically so its
  // replayed launches run the plans the handle dispatches.
  std::vector<conv::ConvShape> warm;
  for (const Dispatch& d : dispatches) {
    if (d.api && std::find(warm.begin(), warm.end(), d.shape) == warm.end()) {
      warm.push_back(d.shape);
    }
  }
  const Clock::time_point warm_start = Clock::now();
  for (const conv::ConvShape& s : warm) {
    api::TensorDescriptor x, y;
    api::FilterDescriptor w;
    descriptors(s, x, w, y);
    api::convolution_plan_warmup(handle, x, w);
  }
  result.metrics["perf.warmup_ms"] = seconds_since(warm_start) * 1e3;
  for (const conv::ConvShape& s : warm) (void)sw.autotune_plan(s);

  double api_ms[3] = {0, 0, 0};
  double mesh_ms[3] = {0, 0, 0};
  double host_ms = 0, host_flop = 0;
  double calls = 0, seconds_sim = 0, flop = 0, dma_bytes = 0;
  double regcomm_bytes = 0, dma_bound = 0, mesh_wall_s = 0;
  std::map<std::string, double> family;
  std::vector<double> model_err, overhead_us;

  // One row per replayed dispatch; a negative number prints as "-".
  std::fprintf(stderr, "%-44s %-10s %-7s %10s %10s %12s %9s\n",
               "replayed dispatch", "pass", "family", "api_ms", "mesh_ms",
               "sim_kcycles", "mdl_err%");
  const auto row = [](const conv::ConvShape& s, Pass pass, const char* fam,
                      double api, double mesh, double kcycles, double err) {
    const auto cell = [](double v, int digits) {
      char text[32] = "-";
      if (v >= 0) std::snprintf(text, sizeof(text), "%.*f", digits, v);
      return std::string(text);
    };
    std::fprintf(stderr, "%-44s %-10s %-7s %10s %10s %12s %9s\n",
                 s.to_string().c_str(), pass_name(pass), fam,
                 cell(api, 3).c_str(), cell(mesh, 3).c_str(),
                 cell(kcycles, 1).c_str(), cell(err, 1).c_str());
  };
  for (const Dispatch& d : dispatches) {
    const conv::ConvShape& s = d.shape;
    Buffers b(s);
    const int p = static_cast<int>(d.pass);
    if (!d.api) {
      const double sec = median_seconds(reps, [&] {
        switch (d.pass) {
          case Pass::kForward:
            b.y.zero();
            conv::im2col_forward(b.x, b.w, b.y, s);
            break;
          case Pass::kBackwardData:
            b.dx.zero();
            conv::im2col_backward_data(b.dy, b.w, b.dx, s);
            break;
          case Pass::kBackwardFilter:
            conv::im2col_backward_filter(b.x, b.dy, b.dw, s);
            break;
        }
      });
      host_ms += sec * 1e3 * d.per_op;
      host_flop += static_cast<double>(s.flops()) * d.per_op;
      row(s, d.pass, "im2col", -1, sec * 1e3, -1, -1);
      continue;
    }

    api::TensorDescriptor xd, yd;
    api::FilterDescriptor wd;
    descriptors(s, xd, wd, yd);
    const auto api_call = [&] {
      api::Status st = api::Status::kSuccess;
      switch (d.pass) {
        case Pass::kForward:
          st = api::convolution_forward(handle, xd, b.x.data().data(), wd,
                                        b.w.data().data(), yd,
                                        b.y.data().data());
          break;
        case Pass::kBackwardData:
          st = api::convolution_backward_data(handle, wd, b.w.data().data(),
                                              yd, b.dy.data().data(), xd,
                                              b.dx.data().data());
          break;
        case Pass::kBackwardFilter:
          st = api::convolution_backward_filter(
              handle, xd, b.x.data().data(), yd, b.dy.data().data(), wd,
              b.dw.data().data());
          break;
      }
      if (st != api::Status::kSuccess) {
        result.gate(false, std::string("replay ") + pass_name(d.pass) + " " +
                               s.to_string() + ": " + api::status_string(st));
      }
    };
    // The API call always runs once, for its route; it is timed only
    // when the workload does not time its own API calls.
    const bool timed = time_api || d.pass == Pass::kForward;
    const double api_sec = median_seconds(timed ? reps : 1, api_call);
    if (time_api) api_ms[p] += api_sec * 1e3 * d.per_op;
    const bool on_mesh = api::last_execution_route(handle) ==
                         api::ExecutionRoute::kSimulatedMesh;
    const char* fam = "host";
    if (d.pass != Pass::kBackwardFilter) {
      fam = on_mesh ? family_name(api::last_plan_algo(handle)) : "host";
      family[fam] += d.per_op;
    } else if (!on_mesh) {
      family["host"] += d.per_op;
    } else {
      fam = "tapgemm";
    }
    if (!on_mesh) {
      row(s, d.pass, fam, timed ? api_sec * 1e3 : -1, -1, -1, -1);
      continue;
    }

    // Same plan, same kernels, outside the API: wall time of the
    // functional simulation and the launch's simulated statistics.
    sim::LaunchStats stats;
    double model_gflops = 0;
    bool overlap = true;
    const double exec_sec = median_seconds(reps, [&] {
      switch (d.pass) {
        case Pass::kForward: {
          const perf::PlanChoice choice =
              sw.ranked_plans(s).entry->best_executable();
          b.y.zero();
          stats = sw.execute_choice(choice, b.x, b.w, b.y, s).stats;
          model_gflops = choice.estimate.gflops_per_cg;
          overlap = choice.plan.double_buffer;
          break;
        }
        case Pass::kBackwardData: {
          b.dx.zero();
          const conv::ForwardResult r =
              conv::swconv_backward_data(sw, b.dy, b.w, b.dx, s);
          stats = r.stats;
          model_gflops = r.choice.estimate.gflops_per_cg;
          overlap = r.choice.plan.double_buffer;
          break;
        }
        case Pass::kBackwardFilter:
          stats = conv::mesh_backward_filter(exec, b.x, b.dy, b.dw, s);
          break;
      }
    });
    const double sim_s = stats.modeled_seconds(overlap);
    mesh_ms[p] += exec_sec * 1e3 * d.per_op;
    mesh_wall_s += exec_sec * d.per_op;
    calls += d.per_op;
    seconds_sim += sim_s * d.per_op;
    flop += static_cast<double>(stats.total_flops) * d.per_op;
    dma_bytes +=
        static_cast<double>(stats.dma.get_bytes + stats.dma.put_bytes) *
        d.per_op;
    regcomm_bytes += static_cast<double>(stats.regcomm_bytes()) * d.per_op;
    if (stats.dma_seconds > stats.compute_seconds) dma_bound += d.per_op;
    double err = -1;
    if (model_gflops > 0 && sim_s > 0) {
      const double sim_gflops =
          static_cast<double>(stats.total_flops) / sim_s / 1e9;
      err = 100.0 * std::abs(model_gflops - sim_gflops) / sim_gflops;
      model_err.push_back(err);
    }
    if (d.pass == Pass::kForward) {
      overhead_us.push_back((api_sec - exec_sec) * 1e6);
    }
    row(s, d.pass, fam, timed ? api_sec * 1e3 : -1, exec_sec * 1e3,
        sim_s * spec.cpe_clock_ghz * 1e6, err);
  }
  api::destroy(handle);

  // Replayed times are reported as shares of the op's untraced p50 (the
  // absolute ms per op go to info): a share reads 0 where the workload
  // does not run the layer, and above 1 where replicas run concurrently.
  auto& m = result.metrics;
  const auto share = [&](const std::string& name, double ms) {
    result.info[name + "_ms"] = ms;
    m[name + "_share"] = op_ms > 0 ? ms / op_ms : 0.0;
  };
  const char* const passes[] = {"fwd", "bwd_data", "bwd_filter"};
  for (int p = 0; p < 3; ++p) {
    if (time_api) share(std::string("api.") + passes[p], api_ms[p]);
    share(std::string("conv.mesh.") + passes[p], mesh_ms[p]);
  }
  share("conv.host.im2col", host_ms);
  m["conv.host.gflops"] = host_ms > 0 ? host_flop / (host_ms * 1e-3) / 1e9 : 0;
  double overhead = 0;
  for (double v : overhead_us) overhead += v;
  m["api.dispatch_overhead_us"] =
      overhead_us.empty() ? 0.0
                          : overhead / static_cast<double>(overhead_us.size());
  for (const char* f : {"img", "batch", "fgrain", "pgrain", "host"}) {
    m[std::string("perf.family.") + f] = family.count(f) ? family[f] : 0.0;
  }
  double err_sum = 0, err_max = 0;
  for (double e : model_err) {
    err_sum += e;
    err_max = std::max(err_max, e);
  }
  m["perf.model_err_pct.mean"] =
      model_err.empty() ? 0.0 : err_sum / static_cast<double>(model_err.size());
  m["perf.model_err_pct.max"] = err_max;
  m["sim.mesh_calls_per_op"] = calls;
  m["sim.mcycles_per_op"] = seconds_sim * spec.cpe_clock_ghz * 1e3;
  m["sim.kcycles_per_call"] =
      calls > 0 ? seconds_sim * spec.cpe_clock_ghz * 1e6 / calls : 0.0;
  m["sim.mflop_per_op"] = flop / 1e6;
  m["sim.dma_mb_per_op"] = dma_bytes / 1e6;
  m["sim.regcomm_mb_per_op"] = regcomm_bytes / 1e6;
  m["sim.dma_bound_share"] = calls > 0 ? dma_bound / calls : 0.0;
  m["sim.gflops_per_cg"] = seconds_sim > 0 ? flop / seconds_sim / 1e9 : 0.0;
  m["sim.host_s_per_sim_gflop"] = flop > 0 ? mesh_wall_s / (flop / 1e9) : 0.0;
}

}  // namespace swdnn::e2e
