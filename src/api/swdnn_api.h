#pragma once
// The library's handle/descriptor API — the calling convention of
// cuDNN, which the real swDNN mirrored so frameworks (Caffe et al.)
// could swap backends. Everything is plain structs, raw pointers, and
// status codes at this boundary; the C++ machinery lives underneath.
//
//   swdnn::api::Handle* handle = nullptr;
//   swdnn::api::create(&handle);
//   TensorDescriptor x_desc, y_desc;
//   FilterDescriptor w_desc;
//   set_tensor4d_descriptor(x_desc, Ri, Ci, Ni, B);
//   set_filter_descriptor(w_desc, Kr, Kc, Ni, No);
//   get_convolution_output_descriptor(x_desc, w_desc, y_desc);
//   convolution_forward(handle, x_desc, x, w_desc, w, y_desc, y);
//   destroy(handle);
//
// Data layout at this boundary is the library's canonical row-major
// [R][C][N][B] (filters [Kr][Kc][Ni][No]). Convolutions are valid,
// stride 1 — the paper's configuration space. Shapes that cannot map
// onto the simulated mesh run on the host GEMM path; the result is the
// same, only the execution substrate differs (query the chosen route
// with last_execution_route()).
//
// Threading contract: a Handle is concurrency-safe for the execution
// and query entry points — N threads that each own their requests may
// issue convolution_forward / convolution_backward_* /
// get_convolution_estimate calls through one shared handle
// simultaneously (the library spawns no threads of its own for this;
// a serving front end batches requests through compiled networks). A
// handle launches every simulated convolution on one executor, so
// concurrent calls serialize on its launches and overlap only in their
// host work (staging, host-GEMM routes). Per-handle mutable state
// (last_execution_route, the error buffer, fault counters, the plan
// cache) is internally guarded; the last_* queries report the most
// recently *completed* call, which under concurrency is whichever
// finished last. The configuration calls (set_fault_plan,
// set_retry_policy, set_event_tracer, set_autotune) reconfigure the
// execution engine and must not race with in-flight calls on the same
// handle — configure first, then dispatch. Distinct handles remain fully
// independent, and the free functions that take no handle
// (status_string, descriptor setters, get_convolution_output_descriptor)
// are pure and thread-safe.
//
// Plan dispatch: the first call on a handle with a given shape ranks
// the candidate plans once (perf::PlanChooser) and caches the ranked
// result keyed by shape; every subsequent call with that shape
// dispatches straight from the cache. Cache behaviour is observable via
// plan_cache_counters() and last_plan_algo(), and — when an
// EventTracer is attached — as "plan_cache" trace events and, at
// warm-up, a "plan" event naming each key's dispatched plan.

#include <cstdint>

#include "src/arch/spec.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"

namespace swdnn::api {

enum class Status {
  kSuccess = 0,
  kBadParam,        ///< null pointer or invalid descriptor
  kShapeMismatch,   ///< descriptors disagree with each other
  kExecutionFailed, ///< internal failure (carried exception message)
  kTransientFault,  ///< an injected/device fault; retrying may succeed
  kDeviceFault,     ///< persistent device fault; the route is dead
};

const char* status_string(Status status);

enum class ExecutionRoute {
  kNone = 0,
  kSimulatedMesh,  ///< Algorithms 1/2 on the SW26010 simulator
  kHostGemm,       ///< im2col + GEMM on the host
};

struct TensorDescriptor {
  std::int64_t rows = 0, cols = 0, channels = 0, batch = 0;
};

struct FilterDescriptor {
  std::int64_t kr = 0, kc = 0, ni = 0, no = 0;
};

struct Handle;  // opaque

/// Creates a handle. `spec` overrides the machine (nullptr = the real
/// SW26010 numbers; tests pass reduced meshes). kBadParam when the
/// spec's mesh is not at least 1x1.
Status create(Handle** handle, const arch::Sw26010Spec* spec = nullptr);
Status destroy(Handle* handle);

Status set_tensor4d_descriptor(TensorDescriptor& desc, std::int64_t rows,
                               std::int64_t cols, std::int64_t channels,
                               std::int64_t batch);
Status set_filter_descriptor(FilterDescriptor& desc, std::int64_t kr,
                             std::int64_t kc, std::int64_t ni,
                             std::int64_t no);

/// Fills `output` with the valid-convolution output dims of (input,
/// filter); kShapeMismatch if channels disagree or the filter exceeds
/// the image.
Status get_convolution_output_descriptor(const TensorDescriptor& input,
                                         const FilterDescriptor& filter,
                                         TensorDescriptor& output);

/// y = conv(x, w). Buffers must hold exactly the descriptor's element
/// counts. Thread-safe on a shared handle.
Status convolution_forward(Handle* handle, const TensorDescriptor& x_desc,
                           const double* x, const FilterDescriptor& w_desc,
                           const double* w, const TensorDescriptor& y_desc,
                           double* y);

/// dx = conv_backward_data(dy, w).
Status convolution_backward_data(Handle* handle,
                                 const FilterDescriptor& w_desc,
                                 const double* w,
                                 const TensorDescriptor& dy_desc,
                                 const double* dy,
                                 const TensorDescriptor& dx_desc, double* dx);

/// dw = conv_backward_filter(x, dy). A shape with no mesh-executable
/// plan runs on the host GEMM (a recorded host fallback, kSuccess). A
/// mesh-executable shape stays on the mesh: a fault the retry policy
/// cannot absorb is not rerouted but returned as kTransientFault or
/// kDeviceFault, so the framework can retry or re-plan.
Status convolution_backward_filter(Handle* handle,
                                   const TensorDescriptor& x_desc,
                                   const double* x,
                                   const TensorDescriptor& dy_desc,
                                   const double* dy,
                                   const FilterDescriptor& dw_desc,
                                   double* dw);

/// Compile-time plan warm-up: ranks the plans for this convolution
/// configuration into the handle's shape-keyed cache without counting
/// as a hit or a miss, so a compiled network's first batch dispatches
/// warm and serve-time hit rates measure serve traffic only. It warms
/// two keys, the forward shape and the backward-data shape
/// (conv::backward_data_shape), or one when they coincide. With a
/// tracer attached it records one "plan" instant per key
/// ("<shape> plan=<plan>", naming the plan that key dispatches, or
/// "plan=host" when none is mesh-executable), then one "plan_cache"
/// instant ("warm" when an entry was built, "warm_cached" when both
/// keys were already resident).
Status convolution_plan_warmup(Handle* handle,
                               const TensorDescriptor& x_desc,
                               const FilterDescriptor& w_desc);

/// Sets how this handle orders each shape's mesh-executable plans,
/// which decides the plan every dispatch of that shape runs (off by
/// default; conv::SwConvolution::set_autotune). On, each plan-cache
/// entry is built with its plans sorted by their exact fault-free
/// simulated launch time, predicted without a launch
/// (conv::predict_launch), so dispatch serves the plan the simulator
/// runs fastest. Off, dispatch keeps the performance model's order.
/// Outputs are unaffected: every plan is bitwise equal to the
/// reference. Changing the setting drops the handle's cached plans and
/// zeroes its plan-cache counters. Configuration-phase call: a change
/// must not race with in-flight convolutions; setting the current
/// value again is a no-op.
Status set_autotune(Handle* handle, bool enable);

/// Modeled throughput (Gflop/s, whole chip) for this configuration —
/// the planning query a framework integration uses for layer timing.
Status get_convolution_estimate(Handle* handle,
                                const TensorDescriptor& x_desc,
                                const FilterDescriptor& w_desc,
                                double* gflops_chip);

/// Which substrate executed the last convolution call on this handle.
ExecutionRoute last_execution_route(const Handle* handle);

// --- Plan cache observability ---------------------------------------------

/// The plan families, as seen at the API boundary: the paper's
/// Table III mappings plus the multigrain family (DESIGN.md §16).
enum class PlanAlgo {
  kNone = 0,        ///< no plan ran (host route, or no call yet)
  /// Retired: the direct-gload strawman of Fig. 2 is a model number
  /// (perf::PerformanceModel::direct_gload_gflops_per_cg), never a plan,
  /// so no call returns this value. It stays so existing switches over
  /// PlanAlgo keep compiling.
  kDirect,
  kImageSizeAware,  ///< Algorithm 1
  kBatchSizeAware,  ///< Algorithm 2
  kFilterGrained,   ///< filters x im2col-pixels mesh GEMM
  /// Retired: the pixel-grained mapping is gone (filter-grained issues
  /// the same launches on its shapes), so no call returns this value.
  /// It stays so existing switches over PlanAlgo keep compiling.
  kPixelGrained,
};

const char* plan_algo_name(PlanAlgo algo);

/// The PlanKind of the cached plan that executed the last mesh-routed
/// convolution on this handle. kNone when the last call took the host
/// route, was a mesh backward-filter (its per-tap GEMMs run no cached
/// plan), or nothing ran yet.
PlanAlgo last_plan_algo(const Handle* handle);

struct PlanCacheCounters {
  std::uint64_t hits = 0;       ///< dispatches served from the cache
  std::uint64_t misses = 0;     ///< PlanChooser::rank invocations
  std::uint64_t evictions = 0;  ///< LRU entries dropped at capacity
  std::uint64_t entries = 0;    ///< shapes currently cached
};

/// Fills `counters` with the handle's shape-keyed plan-cache counters.
Status plan_cache_counters(const Handle* handle,
                           PlanCacheCounters* counters);

/// Attaches an event tracer to the handle (nullptr detaches): every
/// simulated-mesh launch streams its DMA/bus/sync events into it, and
/// the dispatch layer adds "plan_cache" instants (hit / miss /
/// plan_fallback / host_fallback). The tracer must outlive the calls it
/// observes and may be shared across threads (EventTracer locks
/// internally). Configuration-phase call: do not race with in-flight
/// convolutions on this handle.
Status set_event_tracer(Handle* handle, sim::EventTracer* tracer);

/// Human-readable message of the last failure (kExecutionFailed,
/// kTransientFault, kDeviceFault, or an absorbed fault that forced a
/// host or plan fallback) on this handle. A clean, non-degraded
/// success CLEARS the buffer to "" — the message always describes the
/// most recent call that failed or degraded, never a stale one. The
/// storage is a fixed-size buffer inside the handle: the pointer stays
/// valid until the next call on this handle or destroy(), and is
/// unaffected by calls on other handles.
const char* last_error_message(const Handle* handle);

// --- Fault injection and resilience ---------------------------------------
//
// A handle can carry a fault-injection campaign (tests, chaos drills):
// every simulated-mesh launch issued through it polls the plan at the
// DMA/LDM/bus/NoC fault sites. Transient DMA faults are retried at tile
// granularity under the handle's retry policy; faults the policy cannot
// absorb degrade forward and backward-data to the host GEMM path
// (observable via last_execution_route()) and surface from
// backward-filter as kTransientFault / kDeviceFault.

/// Installs (copies) a fault plan on the handle; nullptr removes it.
/// Resets the handle's fault counters.
Status set_fault_plan(Handle* handle, const sim::FaultPlan* plan);

/// Bounded tile-level retry-with-backoff for faulting DMA transfers:
/// up to `max_attempts` tries per transfer (>= 1), attempt k charging
/// `backoff_cycles << (k-1)` cycles before re-issuing.
Status set_retry_policy(Handle* handle, int max_attempts,
                        std::uint64_t backoff_cycles);

struct FaultCounters {
  std::uint64_t dma_transfer_faults = 0;
  std::uint64_t dma_misalign_faults = 0;
  std::uint64_t ldm_capacity_faults = 0;
  std::uint64_t ldm_bitflip_faults = 0;
  std::uint64_t regcomm_stalls = 0;
  std::uint64_t noc_link_faults = 0;
  std::uint64_t dma_retries = 0;     ///< tile transfers re-issued
  std::uint64_t host_fallbacks = 0;  ///< calls degraded to the host path
  std::uint64_t plan_fallbacks = 0;  ///< calls rescued by a ranked
                                     ///< fallback plan after a fault
};

/// Fills `counters` with the faults injected and recoveries performed
/// on this handle since its fault plan was installed.
Status fault_counters(const Handle* handle, FaultCounters* counters);

}  // namespace swdnn::api
