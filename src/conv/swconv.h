#pragma once
// swDNN's public convolution entry point.
//
// Two clocks (DESIGN.md §5):
//   * forward()   — functional execution on the simulated mesh, plan
//                   picked by the performance model (by predicted
//                   simulated time when the object tunes), output
//                   bitwise equal to the naive reference; the
//                   same launch's LaunchStats come without running it
//                   from predict_launch. Its LaunchStats are the
//                   simulator's clock: every DMA request, bus message and
//                   flop counted and charged (Table III's `meas`, run on
//                   a row slice of the paper's shapes).
//   * estimate()  — the closed-form model (Table III's `mdl`), which also
//                   drives plan choice.
//
// Every launch an object issues — forward plans, swconv_backward_data,
// backward_filter — runs on its one lazily created executor; an
// api::Handle holds one SwConvolution, so a handle launches on one
// executor.

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>

#include "src/conv/ldm_blocked.h"
#include "src/conv/shape.h"
#include "src/perf/chooser.h"
#include "src/perf/plan_cache.h"
#include "src/sim/noc.h"

namespace swdnn::conv {

struct ForwardResult {
  perf::PlanChoice choice;
  sim::LaunchStats stats;
};

/// The sim::LaunchStats a fault-free launch of `plan`'s mesh kernel
/// over output rows [ro_begin, ro_end) reports on `spec`'s mesh,
/// computed in closed form from the shape, the plan and the spec
/// without a launch: every count, and dma_seconds and compute_seconds
/// to the bit (no charged count depends on data values). Throws
/// MeshMappingError where the launch would. Faults are not predicted.
sim::LaunchStats predict_launch(const ConvShape& shape,
                                const perf::ConvPlan& plan,
                                const arch::Sw26010Spec& spec,
                                std::int64_t ro_begin = 0,
                                std::int64_t ro_end = -1);

class SwConvolution {
 public:
  /// Throws std::invalid_argument unless the spec's mesh is at least
  /// 1x1.
  explicit SwConvolution(
      const arch::Sw26010Spec& spec = arch::default_spec());

  /// Functional forward on one simulated core group. Overwrites
  /// `output`. Uses `plan` if given, else the cached entry's best
  /// mesh-executable plan (plan_for with require_executable).
  ForwardResult forward(const tensor::Tensor& input,
                        const tensor::Tensor& filter, tensor::Tensor& output,
                        const ConvShape& shape,
                        std::optional<perf::ConvPlan> plan = std::nullopt);

  /// Executes an already-resolved plan choice (a cached winner or one
  /// of its ranked fallbacks) without re-consulting chooser or model.
  ForwardResult execute_choice(const perf::PlanChoice& choice,
                               const tensor::Tensor& input,
                               const tensor::Tensor& filter,
                               tensor::Tensor& output,
                               const ConvShape& shape);

  /// dW = backward-filter(In, dOut): mesh_backward_filter on the shared
  /// executor, under the attached injector, retry policy and tracer.
  /// Overwrites `d_filter`; an unabsorbed fault is reported in the
  /// returned stats (`failed`), not thrown.
  sim::LaunchStats backward_filter(const tensor::Tensor& input,
                                   const tensor::Tensor& d_output,
                                   tensor::Tensor& d_filter,
                                   const ConvShape& shape);

  /// Functional forward with output rows partitioned across `num_cgs`
  /// core groups (the paper's §III-D scaling scheme): one launch per
  /// CG on the shared executor, modeled as concurrent plus a fixed
  /// launch overhead. Throws std::invalid_argument unless 1 <= num_cgs
  /// <= spec().num_core_groups, and a persistent sim::LaunchFault before
  /// any launch (so `output` is untouched) when the attached injector
  /// has severed the NoC link to one of the requested core groups.
  sim::MultiCgStats forward_multi_cg(
      const tensor::Tensor& input, const tensor::Tensor& filter,
      tensor::Tensor& output, const ConvShape& shape, int num_cgs,
      std::optional<perf::ConvPlan> plan = std::nullopt);

  /// The cached entry's first plan, or with `require_executable` its
  /// first mesh-executable one (see set_autotune for that list's
  /// order). Served from the plan cache: a shape is ranked once, repeats
  /// are O(1) lookups. Throws MeshMappingError when require_executable
  /// finds no mesh route.
  perf::PlanChoice plan_for(const ConvShape& shape,
                            bool require_executable = false) const;

  /// Cached ranked plans for the shape (never null): ranks on first
  /// sight, hits the shape-keyed cache afterwards. Thread-safe;
  /// LookupResult.hit feeds the observability counters.
  perf::PlanCache::LookupResult ranked_plans(const ConvShape& shape) const;

  /// Compile-time plan warm-up: ranks the shape into the plan cache
  /// without touching the hit/miss counters, so a network's first
  /// training batch dispatches on cache hits and serve-time hit rates
  /// measure serve traffic only. Returns the entry; `hit` is false when
  /// this call built it.
  perf::PlanCache::LookupResult warm_plan(const ConvShape& shape);

  /// warm_plan for each shape; returns how many entries were built.
  std::size_t warm_plans(const std::vector<ConvShape>& shapes);

  /// Sets how this object's plan-cache entries order their
  /// mesh-executable plans, which decides the plan each key dispatches.
  /// Every entry keeps `ranked` in the performance model's order. Off
  /// (the default), `executable` follows that order too. On, the entry
  /// is built with `executable` stably sorted by predicted launch time
  /// (predict_launch, LaunchStats::modeled_seconds under the plan's
  /// double_buffer), so best_executable() is the plan whose fault-free
  /// launch is fastest, the model's order breaking ties. Outputs stay
  /// bitwise identical whichever plan wins. Changing the setting drops
  /// every cached entry and zeroes the cache counters (clear_plan_cache),
  /// so no entry's order depends on when it was set. Configuration-phase
  /// call: setting the current value again is a no-op, safe next to
  /// in-flight work; a change must not race with it.
  void set_autotune(bool enable);

  /// Turns tuning on, then warms the shape's forward key and its
  /// backward_data_shape key (DESIGN.md §15). Returns how many entries
  /// were built, as warm_plans does.
  std::size_t autotune_plan(const ConvShape& shape);

  /// Hit/miss/eviction counters of this object's plan cache.
  perf::PlanCacheStats plan_cache_stats() const {
    return plan_cache_.stats();
  }

  /// Drops every cached plan and zeroes the cache counters.
  void clear_plan_cache() { plan_cache_.clear(); }

  /// Closed-form model estimate for the best plan.
  perf::PerfEstimate estimate(const ConvShape& shape) const;

  const perf::PlanChooser& chooser() const { return chooser_; }
  const arch::Sw26010Spec& spec() const { return spec_; }

  /// Attaches a fault campaign to every simulated launch this object
  /// issues (nullptr detaches). When a launch reports an injected fault
  /// it could not absorb under the retry policy, forward() throws
  /// sim::LaunchFault after the launch drains; callers retry or fall
  /// back to the host path.
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
  }
  sim::FaultInjector* fault_injector() const { return injector_; }

  /// Tile-level DMA retry-with-backoff applied inside launches.
  void set_retry_policy(const sim::RetryPolicy& policy) { retry_ = policy; }
  const sim::RetryPolicy& retry_policy() const { return retry_; }

  /// Attaches an event tracer to every simulated launch this object
  /// issues (nullptr detaches); the tracer must outlive the launches.
  void set_tracer(sim::EventTracer* tracer) { tracer_ = tracer; }
  sim::EventTracer* tracer() const { return tracer_; }

  // Threading: forward/execute_choice/backward_filter/plan_for/
  // ranked_plans may run concurrently from many threads on one
  // SwConvolution (launches share one persistent MeshExecutor — its CPE
  // fibers run on whichever thread launches — and serialize on an
  // internal mutex; the plan
  // cache locks internally; the attached tracer/injector are themselves
  // thread-safe). The setters (set_fault_injector, set_retry_policy,
  // set_tracer, and set_autotune when it changes the setting) are
  // configuration-phase calls and must not race with in-flight work.

 private:
  /// The plan-cache builder closure shared by ranked_plans and
  /// warm_plan: chooser rank, mesh-executability filter and, when the
  /// object tunes, the sort by predicted launch time. It runs under the
  /// cache mutex and set_autotune clears the cache after storing the
  /// flag, so every entry left after a change follows the new setting.
  perf::PlanCache::Builder cache_builder() const;

  /// The shared executor, created on first launch. Callers must hold
  /// exec_mutex_ for the whole launch; the method (re)applies the
  /// currently attached injector/retry/tracer configuration.
  sim::MeshExecutor& shared_executor() const;

  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  perf::PlanChooser chooser_;
  sim::FaultInjector* injector_ = nullptr;
  sim::RetryPolicy retry_;
  sim::EventTracer* tracer_ = nullptr;
  mutable perf::PlanCache plan_cache_;
  // Atomic: Network::compile sets it on a context that other threads'
  // compiles and steps may share (always to the value it already has).
  std::atomic<bool> autotune_{false};
  mutable std::mutex exec_mutex_;  ///< serializes launches on exec_
  mutable std::unique_ptr<sim::MeshExecutor> exec_;
};

}  // namespace swdnn::conv
