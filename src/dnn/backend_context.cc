#include "src/dnn/backend_context.h"

namespace swdnn::dnn {

namespace {

/// Descriptor triple for a stride-1 ConvShape; throws on stride != 1,
/// the one corner of the layer configuration space the API boundary
/// does not cover (a strided conv runs on the kHostIm2col backend).
struct ConvDescriptors {
  api::TensorDescriptor x, y;
  api::FilterDescriptor w;
};

ConvDescriptors descriptors_for(const conv::ConvShape& shape) {
  if (shape.stride_r != 1 || shape.stride_c != 1) {
    throw std::invalid_argument(
        "BackendContext: the API boundary is stride-1 only (shape " +
        shape.to_string() + ")");
  }
  ConvDescriptors d;
  if (api::set_tensor4d_descriptor(d.x, shape.ri, shape.ci, shape.ni,
                                   shape.batch) != api::Status::kSuccess ||
      api::set_filter_descriptor(d.w, shape.kr, shape.kc, shape.ni,
                                 shape.no) != api::Status::kSuccess ||
      api::get_convolution_output_descriptor(d.x, d.w, d.y) !=
          api::Status::kSuccess) {
    throw std::invalid_argument("BackendContext: invalid conv shape " +
                                shape.to_string());
  }
  return d;
}

}  // namespace

BackendContext::BackendContext(const arch::Sw26010Spec* spec) {
  if (api::create(&handle_, spec) != api::Status::kSuccess) {
    throw std::runtime_error("BackendContext: api::create failed");
  }
}

BackendContext::~BackendContext() {
  if (handle_ != nullptr) api::destroy(handle_);
}

void BackendContext::check(api::Status status, const char* call) const {
  if (status == api::Status::kSuccess) return;
  std::string message = std::string(call) + ": " + api::status_string(status);
  // A rejected argument leaves the handle's diagnostic to an older call.
  if (status != api::Status::kBadParam &&
      status != api::Status::kShapeMismatch) {
    message += std::string(": ") + api::last_error_message(handle_);
  }
  throw BackendError(status, message);
}

conv::ConvShape BackendContext::fc_shape(std::int64_t in_features,
                                         std::int64_t out_features,
                                         std::int64_t batch) {
  conv::ConvShape shape;
  shape.batch = batch;
  shape.ni = in_features;
  shape.no = out_features;
  shape.ri = 1;
  shape.ci = 1;
  shape.kr = 1;
  shape.kc = 1;
  return shape;
}

void BackendContext::warm_conv_plan(const conv::ConvShape& shape) {
  const ConvDescriptors d = descriptors_for(shape);
  check(api::convolution_plan_warmup(handle_, d.x, d.w),
        "convolution_plan_warmup");
}

void BackendContext::conv_forward(const conv::ConvShape& shape,
                                  const double* x, const double* w,
                                  double* y) {
  const ConvDescriptors d = descriptors_for(shape);
  check(api::convolution_forward(handle_, d.x, x, d.w, w, d.y, y),
        "convolution_forward");
}

void BackendContext::conv_backward_data(const conv::ConvShape& shape,
                                        const double* w, const double* dy,
                                        double* dx) {
  const ConvDescriptors d = descriptors_for(shape);
  check(api::convolution_backward_data(handle_, d.w, w, d.y, dy, d.x, dx),
        "convolution_backward_data");
}

void BackendContext::conv_backward_filter(const conv::ConvShape& shape,
                                          const double* x, const double* dy,
                                          double* dw) {
  const ConvDescriptors d = descriptors_for(shape);
  check(api::convolution_backward_filter(handle_, d.x, x, d.y, dy, d.w, dw),
        "convolution_backward_filter");
}

void BackendContext::set_event_tracer(sim::EventTracer* tracer) {
  check(api::set_event_tracer(handle_, tracer), "set_event_tracer");
}

void BackendContext::set_fault_plan(const sim::FaultPlan* plan) {
  check(api::set_fault_plan(handle_, plan), "set_fault_plan");
}

void BackendContext::set_retry_policy(int max_attempts,
                                      std::uint64_t backoff_cycles) {
  check(api::set_retry_policy(handle_, max_attempts, backoff_cycles),
        "set_retry_policy");
}

api::PlanCacheCounters BackendContext::plan_cache_counters() const {
  api::PlanCacheCounters counters;
  api::plan_cache_counters(handle_, &counters);
  return counters;
}

api::FaultCounters BackendContext::fault_counters() const {
  api::FaultCounters counters;
  api::fault_counters(handle_, &counters);
  return counters;
}

api::ExecutionRoute BackendContext::last_execution_route() const {
  return api::last_execution_route(handle_);
}

std::string BackendContext::last_error_message() const {
  return api::last_error_message(handle_);
}

BackendContext& bound_or_own(BackendContext* bound,
                             std::unique_ptr<BackendContext>& own) {
  if (bound != nullptr) return *bound;
  if (own == nullptr) own = std::make_unique<BackendContext>();
  return *own;
}

}  // namespace swdnn::dnn
