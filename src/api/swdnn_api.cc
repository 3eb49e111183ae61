#include "src/api/swdnn_api.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/conv/backward.h"
#include "src/conv/im2col.h"
#include "src/conv/swconv.h"
#include "src/tensor/pool.h"

namespace swdnn::api {

struct Handle {
  // Every simulated launch the handle issues runs on this object's one
  // executor, under the handle's fault injector, retry policy and
  // tracer.
  conv::SwConvolution sw;

  // Guards the per-call mutable state below. Held only for short
  // bookkeeping sections, never across a simulated launch or a host
  // GEMM, so concurrent calls through one handle overlap fully.
  mutable std::mutex mutex;
  ExecutionRoute last_route = ExecutionRoute::kNone;
  PlanAlgo last_plan = PlanAlgo::kNone;
  // Fixed-size buffer, never shared between handles: last_error_message()
  // stays valid and race-free under concurrent use of distinct handles.
  char last_error[256] = {0};
  sim::EventTracer* tracer = nullptr;  // configuration-phase pointer
  std::unique_ptr<sim::FaultInjector> injector;
  std::uint64_t host_fallbacks = 0;
  std::uint64_t dma_retries = 0;
  std::uint64_t plan_fallbacks = 0;

  // Staging-tensor recycler: wrapped inputs, outputs, and the im2col
  // lowering's matrices all cycle through here, so a warmed-up handle
  // mints zero tensors per call regardless of route.
  tensor::TensorPool pool;

  explicit Handle(const arch::Sw26010Spec& s) : sw(s) {}
};

namespace {

void set_error_locked(Handle* handle, const char* message) {
  std::snprintf(handle->last_error, sizeof(handle->last_error), "%s",
                message);
}

void set_error(Handle* handle, const char* message) {
  std::lock_guard<std::mutex> lock(handle->mutex);
  set_error_locked(handle, message);
}

PlanAlgo to_plan_algo(perf::PlanKind kind) {
  switch (kind) {
    case perf::PlanKind::kImageSizeAware:
      return PlanAlgo::kImageSizeAware;
    case perf::PlanKind::kBatchSizeAware:
      return PlanAlgo::kBatchSizeAware;
    case perf::PlanKind::kFilterGrained:
      return PlanAlgo::kFilterGrained;
  }
  return PlanAlgo::kNone;
}

void trace_dispatch(Handle* handle, const char* what) {
  if (handle->tracer != nullptr) {
    handle->tracer->record_instant(0, "plan_cache", what);
  }
}

}  // namespace

const char* status_string(Status status) {
  switch (status) {
    case Status::kSuccess:
      return "SWDNN_STATUS_SUCCESS";
    case Status::kBadParam:
      return "SWDNN_STATUS_BAD_PARAM";
    case Status::kShapeMismatch:
      return "SWDNN_STATUS_SHAPE_MISMATCH";
    case Status::kExecutionFailed:
      return "SWDNN_STATUS_EXECUTION_FAILED";
    case Status::kTransientFault:
      return "SWDNN_STATUS_TRANSIENT_FAULT";
    case Status::kDeviceFault:
      return "SWDNN_STATUS_DEVICE_FAULT";
  }
  return "SWDNN_STATUS_UNKNOWN";
}

const char* plan_algo_name(PlanAlgo algo) {
  switch (algo) {
    case PlanAlgo::kNone:
      return "none";
    case PlanAlgo::kDirect:
      return "direct";
    case PlanAlgo::kImageSizeAware:
      return "image-size-aware";
    case PlanAlgo::kBatchSizeAware:
      return "batch-size-aware";
    case PlanAlgo::kFilterGrained:
      return "filter-grained";
    case PlanAlgo::kPixelGrained:
      return "pixel-grained";
  }
  return "none";
}

Status create(Handle** handle, const arch::Sw26010Spec* spec) {
  if (handle == nullptr) return Status::kBadParam;
  try {
    *handle = new Handle(spec ? *spec : arch::default_spec());
  } catch (const std::invalid_argument&) {
    return Status::kBadParam;  // e.g. a mesh that is not at least 1x1
  }
  return Status::kSuccess;
}

Status destroy(Handle* handle) {
  if (handle == nullptr) return Status::kBadParam;
  delete handle;
  return Status::kSuccess;
}

Status set_tensor4d_descriptor(TensorDescriptor& desc, std::int64_t rows,
                               std::int64_t cols, std::int64_t channels,
                               std::int64_t batch) {
  if (rows <= 0 || cols <= 0 || channels <= 0 || batch <= 0) {
    return Status::kBadParam;
  }
  desc = TensorDescriptor{rows, cols, channels, batch};
  return Status::kSuccess;
}

Status set_filter_descriptor(FilterDescriptor& desc, std::int64_t kr,
                             std::int64_t kc, std::int64_t ni,
                             std::int64_t no) {
  if (kr <= 0 || kc <= 0 || ni <= 0 || no <= 0) return Status::kBadParam;
  desc = FilterDescriptor{kr, kc, ni, no};
  return Status::kSuccess;
}

Status get_convolution_output_descriptor(const TensorDescriptor& input,
                                         const FilterDescriptor& filter,
                                         TensorDescriptor& output) {
  if (input.channels != filter.ni) return Status::kShapeMismatch;
  if (filter.kr > input.rows || filter.kc > input.cols) {
    return Status::kShapeMismatch;
  }
  output = TensorDescriptor{input.rows - filter.kr + 1,
                            input.cols - filter.kc + 1, filter.no,
                            input.batch};
  return Status::kSuccess;
}

namespace {

/// Builds the ConvShape from the descriptor triple; kShapeMismatch if
/// they are inconsistent.
Status resolve_shape(const TensorDescriptor& x, const FilterDescriptor& w,
                     const TensorDescriptor& y, conv::ConvShape& shape) {
  TensorDescriptor expect_y;
  const Status s = get_convolution_output_descriptor(x, w, expect_y);
  if (s != Status::kSuccess) return s;
  if (expect_y.rows != y.rows || expect_y.cols != y.cols ||
      expect_y.channels != y.channels || expect_y.batch != y.batch) {
    return Status::kShapeMismatch;
  }
  shape.batch = x.batch;
  shape.ni = w.ni;
  shape.no = w.no;
  shape.ri = x.rows;
  shape.ci = x.cols;
  shape.kr = w.kr;
  shape.kc = w.kc;
  return Status::kSuccess;
}

/// Pool-backed copy-in of a caller buffer (fully overwritten → dirty).
tensor::PooledTensor wrap(Handle* handle, const double* data,
                          const std::vector<std::int64_t>& dims) {
  tensor::PooledTensor t = handle->pool.acquire_dirty(dims);
  std::copy(data, data + t->size(), t->data().begin());
  return t;
}

/// Pool-backed output buffer, zeroed like a fresh tensor (the mesh
/// kernels and the fallback ladder rely on the zero initial state).
tensor::PooledTensor out_buffer(Handle* handle,
                                const std::vector<std::int64_t>& dims) {
  return handle->pool.acquire(dims);
}

}  // namespace

Status convolution_forward(Handle* handle, const TensorDescriptor& x_desc,
                           const double* x, const FilterDescriptor& w_desc,
                           const double* w, const TensorDescriptor& y_desc,
                           double* y) {
  if (handle == nullptr || x == nullptr || w == nullptr || y == nullptr) {
    return Status::kBadParam;
  }
  conv::ConvShape shape;
  const Status s = resolve_shape(x_desc, w_desc, y_desc, shape);
  if (s != Status::kSuccess) return s;

  try {
    tensor::PooledTensor input =
        wrap(handle, x, {shape.ri, shape.ci, shape.ni, shape.batch});
    tensor::PooledTensor filter =
        wrap(handle, w, {shape.kr, shape.kc, shape.ni, shape.no});
    tensor::PooledTensor output =
        out_buffer(handle, {shape.ro(), shape.co(), shape.no, shape.batch});

    // One rank() per shape per handle: the winning plan and its ranked
    // fallbacks come from the shape-keyed cache.
    const perf::PlanCache::LookupResult lookup =
        handle->sw.ranked_plans(shape);
    trace_dispatch(handle, lookup.hit ? "hit" : "miss");
    const perf::CachedPlan& plans = *lookup.entry;

    // At most two mesh attempts: the cached winner, then the best
    // ranked fallback *from the winner's own mapping family* — a plan
    // with different LDM blocking can survive a fault that killed the
    // winner, but the retry never silently crosses PlanKind families
    // (the mapping is part of the plan's identity; a caller that
    // observed last_plan == "fgrain" must not be rescued by a batch
    // plan behind its back). If the winner's family has no second
    // executable entry, the ladder goes straight to the host route.
    std::string degrade_reason;
    bool mesh_done = false;
    std::vector<std::size_t> attempt_idx;
    if (!plans.executable.empty()) {
      attempt_idx.push_back(plans.executable[0]);
      const perf::PlanKind family =
          plans.ranked[plans.executable[0]].plan.kind;
      for (std::size_t e = 1; e < plans.executable.size(); ++e) {
        if (plans.ranked[plans.executable[e]].plan.kind == family) {
          attempt_idx.push_back(plans.executable[e]);
          break;
        }
      }
    }
    for (std::size_t a = 0; a < attempt_idx.size() && !mesh_done; ++a) {
      const perf::PlanChoice& choice = plans.ranked[attempt_idx[a]];
      if (a > 0) {
        output->zero();  // discard the faulted attempt's partial tiles
        trace_dispatch(handle, "plan_fallback");
      }
      try {
        const conv::ForwardResult result = handle->sw.execute_choice(
            choice, *input, *filter, *output, shape);
        std::lock_guard<std::mutex> lock(handle->mutex);
        handle->dma_retries += result.stats.dma_retries;
        if (a > 0) {
          ++handle->plan_fallbacks;
          set_error_locked(handle, degrade_reason.c_str());
        } else {
          // A clean success invalidates whatever diagnostic a previous
          // call left behind; a stale message must not be attributed to
          // this call by an error-reporting layer above.
          set_error_locked(handle, "");
        }
        handle->last_route = ExecutionRoute::kSimulatedMesh;
        handle->last_plan = to_plan_algo(choice.plan.kind);
        mesh_done = true;
      } catch (const sim::LaunchFault& e) {
        degrade_reason = e.what();
      }
    }

    if (!mesh_done) {
      // Degradation is recorded, never silent: either every mesh
      // attempt faulted (degrade_reason holds the diagnostic) or the
      // shape has no mesh mapping at all. Anything else — bad_alloc,
      // indexing bugs — propagates to the outer catch as
      // kExecutionFailed instead of being masked by the host route.
      if (degrade_reason.empty()) {
        degrade_reason = "no mesh-executable plan for " + shape.to_string() +
                         "; routed to host GEMM";
      }
      trace_dispatch(handle, "host_fallback");
      output->zero();
      conv::im2col_forward(*input, *filter, *output, shape, &handle->pool);
      std::lock_guard<std::mutex> lock(handle->mutex);
      set_error_locked(handle, degrade_reason.c_str());
      ++handle->host_fallbacks;
      handle->last_route = ExecutionRoute::kHostGemm;
      handle->last_plan = PlanAlgo::kNone;
    }
    std::copy(output->data().begin(), output->data().end(), y);
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return Status::kExecutionFailed;
  }
  return Status::kSuccess;
}

Status convolution_backward_data(Handle* handle,
                                 const FilterDescriptor& w_desc,
                                 const double* w,
                                 const TensorDescriptor& dy_desc,
                                 const double* dy,
                                 const TensorDescriptor& dx_desc,
                                 double* dx) {
  if (handle == nullptr || w == nullptr || dy == nullptr || dx == nullptr) {
    return Status::kBadParam;
  }
  conv::ConvShape shape;
  const Status s = resolve_shape(dx_desc, w_desc, dy_desc, shape);
  if (s != Status::kSuccess) return s;
  try {
    tensor::PooledTensor filter =
        wrap(handle, w, {shape.kr, shape.kc, shape.ni, shape.no});
    tensor::PooledTensor dout =
        wrap(handle, dy, {shape.ro(), shape.co(), shape.no, shape.batch});
    tensor::PooledTensor din =
        out_buffer(handle, {shape.ri, shape.ci, shape.ni, shape.batch});
    const auto host_fallback = [&](const char* reason) {
      trace_dispatch(handle, "host_fallback");
      din->zero();
      conv::im2col_backward_data(*dout, *filter, *din, shape,
                                 &handle->pool);
      std::lock_guard<std::mutex> lock(handle->mutex);
      set_error_locked(handle, reason);
      ++handle->host_fallbacks;
      handle->last_route = ExecutionRoute::kHostGemm;
      handle->last_plan = PlanAlgo::kNone;
    };
    try {
      const conv::ForwardResult result = conv::swconv_backward_data(
          handle->sw, *dout, *filter, *din, shape, &handle->pool);
      std::lock_guard<std::mutex> lock(handle->mutex);
      handle->dma_retries += result.stats.dma_retries;
      set_error_locked(handle, "");  // clean success clears stale errors
      handle->last_route = ExecutionRoute::kSimulatedMesh;
      handle->last_plan = to_plan_algo(result.choice.plan.kind);
    } catch (const sim::LaunchFault& e) {
      // A fault the tile-retry policy could not absorb: the mesh route
      // is degraded, so recompute the whole call on the host. The
      // partially written mesh output is discarded.
      host_fallback(e.what());
    } catch (const conv::MeshMappingError& e) {
      // The backward shape does not map onto the mesh (divisibility):
      // the host path is the designed route, but the reroute is
      // recorded, not silent. Real bugs propagate to the outer catch.
      host_fallback(e.what());
    }
    std::copy(din->data().begin(), din->data().end(), dx);
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return Status::kExecutionFailed;
  }
  return Status::kSuccess;
}

Status convolution_backward_filter(Handle* handle,
                                   const TensorDescriptor& x_desc,
                                   const double* x,
                                   const TensorDescriptor& dy_desc,
                                   const double* dy,
                                   const FilterDescriptor& dw_desc,
                                   double* dw) {
  if (handle == nullptr || x == nullptr || dy == nullptr || dw == nullptr) {
    return Status::kBadParam;
  }
  conv::ConvShape shape;
  const Status s = resolve_shape(x_desc, dw_desc, dy_desc, shape);
  if (s != Status::kSuccess) return s;
  try {
    tensor::PooledTensor input =
        wrap(handle, x, {shape.ri, shape.ci, shape.ni, shape.batch});
    tensor::PooledTensor dout =
        wrap(handle, dy, {shape.ro(), shape.co(), shape.no, shape.batch});
    tensor::PooledTensor dfilter =
        out_buffer(handle, {shape.kr, shape.kc, shape.ni, shape.no});

    // Shapes with no mesh-executable plan are the host-GEMM territory
    // the forward and backward-data paths already route around; send
    // the filter gradient to the host too — recorded, never silent —
    // so a compiled network gets a complete training step for any
    // shape. Mesh-executable shapes stay on the mesh (a fault surfaces
    // as kTransientFault/kDeviceFault, below).
    const perf::PlanCache::LookupResult lookup =
        handle->sw.ranked_plans(shape);
    trace_dispatch(handle, lookup.hit ? "hit" : "miss");
    if (!lookup.entry->has_executable()) {
      trace_dispatch(handle, "host_fallback");
      conv::im2col_backward_filter(*input, *dout, *dfilter, shape,
                                   &handle->pool);
      const std::string reason = "no mesh-executable plan for " +
                                 shape.to_string() + "; routed to host GEMM";
      {
        std::lock_guard<std::mutex> lock(handle->mutex);
        set_error_locked(handle, reason.c_str());
        ++handle->host_fallbacks;
        handle->last_route = ExecutionRoute::kHostGemm;
        handle->last_plan = PlanAlgo::kNone;
      }
      std::copy(dfilter->data().begin(), dfilter->data().end(), dw);
      return Status::kSuccess;
    }

    const sim::LaunchStats stats =
        handle->sw.backward_filter(*input, *dout, *dfilter, shape);
    if (stats.failed) {
      // A fault on the mesh route is not rerouted to the host: surface
      // its class so the framework can retry or re-plan.
      set_error(handle, stats.failure.c_str());
      return stats.persistent_fault ? Status::kDeviceFault
                                    : Status::kTransientFault;
    }
    {
      std::lock_guard<std::mutex> lock(handle->mutex);
      handle->dma_retries += stats.dma_retries;
      set_error_locked(handle, "");  // clean success clears stale errors
      handle->last_route = ExecutionRoute::kSimulatedMesh;
      handle->last_plan = PlanAlgo::kNone;  // per-tap GEMMs, no cached plan
    }
    std::copy(dfilter->data().begin(), dfilter->data().end(), dw);
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return Status::kExecutionFailed;
  }
  return Status::kSuccess;
}

Status convolution_plan_warmup(Handle* handle,
                               const TensorDescriptor& x_desc,
                               const FilterDescriptor& w_desc) {
  if (handle == nullptr) return Status::kBadParam;
  TensorDescriptor y_desc;
  const Status s = get_convolution_output_descriptor(x_desc, w_desc, y_desc);
  if (s != Status::kSuccess) return s;
  conv::ConvShape shape;
  const Status rs = resolve_shape(x_desc, w_desc, y_desc, shape);
  if (rs != Status::kSuccess) return rs;
  try {
    // backward-data dispatches the transposed problem through the same
    // cache, so a full warm-up covers both keys a training step uses
    // (one key when they coincide).
    const conv::ConvShape keys[] = {shape, conv::backward_data_shape(shape)};
    const std::size_t num_keys = keys[1] == keys[0] ? 1 : 2;
    bool built = false;
    for (std::size_t k = 0; k < num_keys; ++k) {
      const perf::PlanCache::LookupResult warmed =
          handle->sw.warm_plan(keys[k]);
      built |= !warmed.hit;
      if (handle->tracer != nullptr) {
        // The plan this key dispatches, or the host route when no plan
        // is mesh-executable.
        const perf::CachedPlan& plans = *warmed.entry;
        const std::string what =
            keys[k].to_string() + " plan=" +
            (plans.has_executable() ? plans.best_executable().plan.to_string()
                                    : std::string("host"));
        handle->tracer->record_instant(0, "plan", what.c_str());
      }
    }
    trace_dispatch(handle, built ? "warm" : "warm_cached");
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return Status::kExecutionFailed;
  }
  return Status::kSuccess;
}

Status set_autotune(Handle* handle, bool enable) {
  if (handle == nullptr) return Status::kBadParam;
  handle->sw.set_autotune(enable);
  return Status::kSuccess;
}

Status get_convolution_estimate(Handle* handle,
                                const TensorDescriptor& x_desc,
                                const FilterDescriptor& w_desc,
                                double* gflops_chip) {
  if (handle == nullptr || gflops_chip == nullptr) return Status::kBadParam;
  TensorDescriptor y_desc;
  const Status s = get_convolution_output_descriptor(x_desc, w_desc, y_desc);
  if (s != Status::kSuccess) return s;
  try {
    conv::ConvShape shape;
    const Status rs = resolve_shape(x_desc, w_desc, y_desc, shape);
    if (rs != Status::kSuccess) return rs;
    *gflops_chip = handle->sw.estimate(shape).gflops_chip;
  } catch (const std::exception& e) {
    set_error(handle, e.what());
    return Status::kExecutionFailed;
  }
  return Status::kSuccess;
}

ExecutionRoute last_execution_route(const Handle* handle) {
  if (handle == nullptr) return ExecutionRoute::kNone;
  std::lock_guard<std::mutex> lock(handle->mutex);
  return handle->last_route;
}

PlanAlgo last_plan_algo(const Handle* handle) {
  if (handle == nullptr) return PlanAlgo::kNone;
  std::lock_guard<std::mutex> lock(handle->mutex);
  return handle->last_plan;
}

const char* last_error_message(const Handle* handle) {
  return handle == nullptr ? "" : handle->last_error;
}

Status plan_cache_counters(const Handle* handle,
                           PlanCacheCounters* counters) {
  if (handle == nullptr || counters == nullptr) return Status::kBadParam;
  const perf::PlanCacheStats stats = handle->sw.plan_cache_stats();
  counters->hits = stats.hits;
  counters->misses = stats.misses;
  counters->evictions = stats.evictions;
  counters->entries = stats.entries;
  return Status::kSuccess;
}

Status set_event_tracer(Handle* handle, sim::EventTracer* tracer) {
  if (handle == nullptr) return Status::kBadParam;
  handle->tracer = tracer;
  handle->sw.set_tracer(tracer);
  return Status::kSuccess;
}

Status set_fault_plan(Handle* handle, const sim::FaultPlan* plan) {
  if (handle == nullptr) return Status::kBadParam;
  if (plan == nullptr) {
    handle->injector.reset();
    handle->sw.set_fault_injector(nullptr);
  } else {
    handle->injector = std::make_unique<sim::FaultInjector>(*plan);
    handle->sw.set_fault_injector(handle->injector.get());
  }
  std::lock_guard<std::mutex> lock(handle->mutex);
  handle->host_fallbacks = 0;
  handle->dma_retries = 0;
  handle->plan_fallbacks = 0;
  return Status::kSuccess;
}

Status set_retry_policy(Handle* handle, int max_attempts,
                        std::uint64_t backoff_cycles) {
  if (handle == nullptr || max_attempts < 1) return Status::kBadParam;
  handle->sw.set_retry_policy(sim::RetryPolicy{max_attempts, backoff_cycles});
  return Status::kSuccess;
}

Status fault_counters(const Handle* handle, FaultCounters* counters) {
  if (handle == nullptr || counters == nullptr) return Status::kBadParam;
  *counters = FaultCounters{};
  {
    std::lock_guard<std::mutex> lock(handle->mutex);
    counters->host_fallbacks = handle->host_fallbacks;
    counters->dma_retries = handle->dma_retries;
    counters->plan_fallbacks = handle->plan_fallbacks;
  }
  if (handle->injector != nullptr) {
    const sim::FaultInjector& fi = *handle->injector;
    counters->dma_transfer_faults = fi.count(sim::FaultSite::kDmaTransfer);
    counters->dma_misalign_faults = fi.count(sim::FaultSite::kDmaMisalign);
    counters->ldm_capacity_faults = fi.count(sim::FaultSite::kLdmCapacity);
    counters->ldm_bitflip_faults = fi.count(sim::FaultSite::kLdmBitFlip);
    counters->regcomm_stalls = fi.count(sim::FaultSite::kRegcommStall);
    counters->noc_link_faults = fi.count(sim::FaultSite::kNocLink);
  }
  return Status::kSuccess;
}

}  // namespace swdnn::api
