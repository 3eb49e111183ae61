#include "src/dnn/convolution.h"

#include <cmath>
#include <stdexcept>

#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/dnn/backend_context.h"

namespace swdnn::dnn {

namespace {

// output[ro][co][no][b] += bias[no] over the [Ro][Co][No][B] output.
void add_bias(std::span<double> output, const tensor::Tensor& bias,
              const conv::ConvShape& shape) {
  const double* bias_v = bias.data().data();
  double* out = output.data();
  for (std::int64_t px = 0; px < shape.ro() * shape.co(); ++px)
    for (std::int64_t no = 0; no < shape.no; ++no)
      for (std::int64_t b = 0; b < shape.batch; ++b) *out++ += bias_v[no];
}

// d_bias[no] = sum of d_output[ro][co][no][b], accumulated in (ro, co, b)
// order.
void bias_gradient(std::span<const double> d_output, tensor::Tensor& d_bias,
                   const conv::ConvShape& shape) {
  d_bias.zero();
  double* grad = d_bias.data().data();
  const double* dout = d_output.data();
  for (std::int64_t px = 0; px < shape.ro() * shape.co(); ++px)
    for (std::int64_t no = 0; no < shape.no; ++no)
      for (std::int64_t b = 0; b < shape.batch; ++b) grad[no] += *dout++;
}

}  // namespace

Convolution::Convolution(const conv::ConvShape& shape, util::Rng& rng,
                         ConvBackend backend, bool with_bias)
    : shape_(shape),
      backend_(backend),
      with_bias_(with_bias),
      filter_(conv::make_filter(shape)),
      d_filter_(conv::make_filter(shape)),
      bias_({shape.no}),
      d_bias_({shape.no}) {
  shape_.validate();
  const double fan_in =
      static_cast<double>(shape.ni * shape.kr * shape.kc);
  rng.fill_normal(filter_.data(), 0.0, std::sqrt(2.0 / fan_in));
}

Convolution::~Convolution() = default;

std::vector<ParamGrad> Convolution::params() {
  std::vector<ParamGrad> out = {ParamGrad{&filter_, &d_filter_}};
  if (with_bias_) out.push_back(ParamGrad{&bias_, &d_bias_});
  return out;
}

bool Convolution::use_api() const {
  return context_ != nullptr && shape_.stride_r == 1 && shape_.stride_c == 1;
}

// Unbound staging is deliberately not pooled: an eager layer would
// otherwise keep its im2col matrices alive between calls.
tensor::PooledTensor Convolution::host_tensor(
    const std::vector<std::int64_t>& dims) {
  if (context_ != nullptr) return host_pool_.acquire_dirty(dims);
  return tensor::PooledTensor(nullptr, tensor::Tensor(dims));
}

tensor::PooledTensor Convolution::host_copy(const tensor::TensorView& view) {
  tensor::PooledTensor t = host_tensor(view.dims());
  std::copy(view.data().begin(), view.data().end(), t->data().begin());
  return t;
}

tensor::TensorPool* Convolution::host_pool() {
  return context_ != nullptr ? &host_pool_ : nullptr;
}

std::vector<std::int64_t> Convolution::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims !=
      std::vector<std::int64_t>{shape_.ri, shape_.ci, shape_.ni,
                                shape_.batch}) {
    throw std::invalid_argument("Convolution::infer_shape: expected [" +
                                std::to_string(shape_.ri) + "][" +
                                std::to_string(shape_.ci) + "][" +
                                std::to_string(shape_.ni) + "][" +
                                std::to_string(shape_.batch) + "] input");
  }
  return {shape_.ro(), shape_.co(), shape_.no, shape_.batch};
}

void Convolution::plan(const std::vector<std::int64_t>& input_dims) {
  (void)infer_shape(input_dims);  // revalidate
  if (use_api()) context_->warm_conv_plan(shape_);
}

// Route fidelity: a kHostIm2col layer must run the im2col kernels in
// both regimes. It used to be safe to send every compiled conv through
// the API — ragged shapes had no mesh mapping, so the API landed on the
// host im2col fallback anyway — but the filter-grained mapping makes
// almost any stride-1 shape mesh-executable, and the mesh kernels
// accumulate in reference (kr,kc,ni) order while im2col lowers K as
// (ni,kr,kc): correct to 1e-15 but not bitwise. The compiled/eager
// bitwise differential therefore requires the layer's declared backend
// to pick the route, not the plan chooser.
void Convolution::forward_view(const tensor::TensorView& input,
                               tensor::TensorView& output) {
  input_view_ = input;
  if (backend_ == ConvBackend::kHostIm2col) {
    const tensor::PooledTensor in = host_copy(input);
    tensor::PooledTensor out = host_tensor(output.dims());
    conv::im2col_forward(*in, filter_, *out, shape_, host_pool());
    output.copy_from(*out);
  } else {
    bound_or_own(context_, own_context_)
        .conv_forward(shape_, input.data().data(), filter_.data().data(),
                      output.data().data());
  }
  if (with_bias_) add_bias(output.data(), bias_, shape_);
}

void Convolution::backward_view(const tensor::TensorView& d_output,
                                tensor::TensorView& d_input) {
  if (with_bias_) bias_gradient(d_output.data(), d_bias_, shape_);
  if (backend_ == ConvBackend::kHostIm2col) {
    const tensor::PooledTensor in = host_copy(input_view_);
    const tensor::PooledTensor dout = host_copy(d_output);
    tensor::PooledTensor din = host_tensor(d_input.dims());
    conv::im2col_backward_filter(*in, *dout, d_filter_, shape_, host_pool());
    conv::im2col_backward_data(*dout, filter_, *din, shape_, host_pool());
    d_input.copy_from(*din);
    return;
  }
  BackendContext& context = bound_or_own(context_, own_context_);
  context.conv_backward_filter(shape_, input_view_.data().data(),
                               d_output.data().data(),
                               d_filter_.data().data());
  context.conv_backward_data(shape_, filter_.data().data(),
                             d_output.data().data(), d_input.data().data());
}

}  // namespace swdnn::dnn
