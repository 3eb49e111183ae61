#pragma once
// Shared pieces of the end-to-end benchmark driver (swdnn_bench).
//
// The driver reaches every layer of the library only through its public
// functions. It times each call it makes with its own spans (wall-clock
// nanoseconds, never simulated cycles) and reads the library's public
// counters; simulated-machine numbers come from replaying the same
// dispatches on a private SwConvolution, whose LaunchStats are
// deterministic. Each workload fills one Result; main.cc prints it.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/conv/shape.h"

namespace swdnn::tensor {
class Tensor;
}  // namespace swdnn::tensor
namespace swdnn::api {
struct PlanCacheCounters;
}  // namespace swdnn::api
namespace swdnn::sim {
class EventTracer;
}  // namespace swdnn::sim

namespace swdnn::e2e {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< per-layer pass instead of the end-to-end one
  bool smoke = false;     ///< a few ops per phase, every correctness gate
  std::string out_dir = ".";
};

/// Everything one workload run reports.
struct Result {
  std::vector<std::string> failures;  ///< correctness gates that failed
  std::uint64_t attempted = 0;        ///< timed operations issued
  std::uint64_t failed = 0;           ///< of those, failed operations
  std::map<std::string, double> metrics;  ///< declared metrics only
  std::map<std::string, double> info;     ///< sample counts, digests, ...

  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double seconds_since(Clock::time_point start);

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Reports the untraced op times of a run: latency_ms.p10 as the
/// end-to-end metric, the median and 90th percentile in info.
void report_latency(const std::vector<double>& ms, Result& result);

/// FNV-1a over the bytes of a double buffer: a parameter/output digest
/// that changes when any bit does.
std::uint64_t digest(const double* data, std::size_t count,
                     std::uint64_t seed = 1469598103934665603ull);

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b);

/// Plan-cache hits over lookups; 0 before any lookup.
double hit_ratio(const api::PlanCacheCounters& counters);

/// Wall ns covered by the library's own "layer" spans in `tracer`
/// (Network writes nanoseconds into their cycle fields).
double layer_span_ns(const sim::EventTracer& tracer);

/// Median wall seconds over repeated runs of `setup`: at least 10 and
/// until 1 s has passed, at most 100 (1 in smoke mode). Each workload
/// sets itself up many times so setup_s is a median, not one cold
/// sample; cheap set-ups repeat more, which steadies their median.
/// `teardown` drops the previous set-up's objects, outside the timing.
template <typename T, typename F>
double median_setup_seconds(bool smoke, T&& teardown, F&& setup) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.empty() ||
         (!smoke && seconds.size() < 100 &&
          (seconds.size() < 10 || total < 1.0))) {
    teardown();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(seconds_since(start));
    total += seconds.back();
  }
  return quantile(seconds, 0.5);
}

// --- Spans ----------------------------------------------------------------

/// The driver's own spans around each public call: wall ns, parent span
/// id, workload and step. Single-threaded use (the driver thread, or
/// the serving load generator); disabled recorders cost one branch.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_step(std::int64_t step) { step_ = step; }

  int begin(const char* name);
  void end(int id);
  /// A span whose extent was measured elsewhere (a served request runs
  /// on the server's threads). Returns its id, or -1 when disabled.
  int add(const char* name, Clock::time_point begin, Clock::time_point end,
          int parent = -1);

  /// Sum of durations of every span called `name`, in ms.
  double total_ms(const std::string& name) const;
  /// Sum over spans called `parent` of the time their direct children
  /// cover, as a share of the parents' own time.
  double child_cover(const std::string& parent) const;

  /// Chrome trace format ("X" events, microseconds). False on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;
    std::int64_t step = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int64_t now_ns() const;

  std::string workload_;
  bool enabled_ = false;
  std::int64_t step_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< indices into spans_ of unfinished spans
};

/// Fills trace.overhead_pct (traced against untraced op p50) and
/// trace.span_cover (the children of `op_span`, gated within 5% of the
/// op time), and writes <out_dir>/trace_<workload>.json.
void report_trace(const SpanRecorder& rec, const Options& options,
                  const std::string& op_span, double plain_p50,
                  double traced_p50, Result& result);

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) recorder_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

// --- Layer replay -----------------------------------------------------------

enum class Pass { kForward, kBackwardData, kBackwardFilter };

/// One heavy-op dispatch an operation makes, `per_op` times per op.
/// `api` dispatches go through the api::convolution_* calls (and so
/// through the plan cache onto the mesh or the host fallback); the
/// others are kHostIm2col layers, which call the conv::im2col_* kernels.
struct Dispatch {
  conv::ConvShape shape;
  Pass pass = Pass::kForward;
  bool api = true;
  double per_op = 1.0;
};

/// Replays each distinct dispatch outside the workload and fills the
/// api.*, conv.*, sim.* and perf.* per-layer metrics, per op. Replayed
/// times become shares of `op_ms`, the workload's untraced op median.
/// `time_api` = false leaves api.{fwd,bwd_data,bwd_filter}_share to a
/// workload that times its API calls directly.
void replay_layers(const std::vector<Dispatch>& dispatches, double op_ms,
                   bool time_api, int reps, Result& result);

// --- Workloads --------------------------------------------------------------

Result run_train_hier(const Options& options);
Result run_train_mesh(const Options& options);
Result run_conv_sweep(const Options& options);
Result run_serve(const Options& options);

}  // namespace swdnn::e2e
