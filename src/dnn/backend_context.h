#pragma once
// Shared backend context: the one route from a layer to the simulated
// mesh.
//
// One BackendContext wraps one swdnn::api Handle and is shared by every
// conv/FC layer of a compiled Network (and across replicas of a
// HierarchicalTrainer): all heavy ops funnel through a single plan
// cache, fault-retry/host-GEMM ladder, and event tracer, exactly the
// way a framework integration would hold one library handle per
// process. Fully-connected layers ride the same funnel by expressing
// themselves as 1x1 convolutions (fc_shape). An unbound mesh layer
// dispatches through a private context made on first use
// (bound_or_own). A kHostIm2col conv and an unbound kHostGemm FC run
// their host kernels instead (convolution.h, fully_connected.h).
//
// Threading: the conv_* execution wrappers inherit the Handle contract —
// N threads may call them concurrently on one context (the per-call
// mutable state inside the handle is internally guarded). The
// configuration calls (set_event_tracer, set_fault_plan,
// set_retry_policy) must not race with in-flight execution: configure
// first, then dispatch. HierarchicalTrainer steps its replicas
// concurrently on the host task pool, which the execution wrappers'
// concurrent-call guarantee covers; its configuration still happens
// between steps, outside any dispatch.
//
// Error policy: a non-success API status, from an execution wrapper or
// a configuration call alike, becomes a thrown BackendError carrying
// the status and the handle's diagnostic. Recorded degradations
// (host-GEMM fallback, ranked-plan fallback) are kSuccess at the API
// boundary and therefore do NOT throw — they are visible via
// fault_counters()/last_execution_route(). The throw composes with
// Trainer::train_step_resilient, whose checkpoint rollback is the
// layer above this ladder's last rung.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/api/swdnn_api.h"
#include "src/conv/shape.h"

namespace swdnn::dnn {

class BackendError : public std::runtime_error {
 public:
  BackendError(api::Status status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  api::Status status() const { return status_; }

 private:
  api::Status status_;
};

class BackendContext {
 public:
  /// nullptr = the real SW26010 spec; tests pass reduced meshes.
  explicit BackendContext(const arch::Sw26010Spec* spec = nullptr);
  ~BackendContext();
  BackendContext(const BackendContext&) = delete;
  BackendContext& operator=(const BackendContext&) = delete;

  api::Handle* handle() { return handle_; }

  /// A fully-connected layer as the API sees it: a 1x1 valid
  /// convolution over [1][1][in_features][batch] activations with a
  /// [1][1][in_features][out_features] filter. The row-major flatten
  /// of [R][C][N][B] to [R*C*N][B] is a reinterpretation, not a copy.
  static conv::ConvShape fc_shape(std::int64_t in_features,
                                  std::int64_t out_features,
                                  std::int64_t batch);

  /// Compile-time plan warm-up (counter-neutral at the plan cache).
  void warm_conv_plan(const conv::ConvShape& shape);

  // Execution wrappers. Buffers are canonical row-major and must hold
  // exactly the shape's element counts; stride must be 1 (the API's
  // configuration space). Throws BackendError on a non-success status.
  void conv_forward(const conv::ConvShape& shape, const double* x,
                    const double* w, double* y);
  void conv_backward_data(const conv::ConvShape& shape, const double* w,
                          const double* dy, double* dx);
  void conv_backward_filter(const conv::ConvShape& shape, const double* x,
                            const double* dy, double* dw);

  // Configuration passthroughs (configuration-phase: no in-flight work).
  // Throw BackendError when the API rejects the setting (e.g. a retry
  // policy of fewer than one attempt); the old setting stays.
  void set_event_tracer(sim::EventTracer* tracer);
  void set_fault_plan(const sim::FaultPlan* plan);
  void set_retry_policy(int max_attempts, std::uint64_t backoff_cycles);

  // Observability passthroughs.
  api::PlanCacheCounters plan_cache_counters() const;
  api::FaultCounters fault_counters() const;
  api::ExecutionRoute last_execution_route() const;
  std::string last_error_message() const;

 private:
  /// Throws BackendError naming `call` unless `status` is kSuccess.
  void check(api::Status status, const char* call) const;

  api::Handle* handle_ = nullptr;
};

/// The context a layer's heavy ops dispatch through: `bound` once
/// compile() bound one, else `own`, made on first use with the real
/// SW26010 spec.
BackendContext& bound_or_own(BackendContext* bound,
                             std::unique_ptr<BackendContext>& own);

}  // namespace swdnn::dnn
