#include "src/dnn/convolution.h"

#include <cmath>
#include <stdexcept>

#include "src/conv/backward.h"
#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/dnn/backend_context.h"

namespace swdnn::dnn {

namespace {

// output[ro][co][no][b] += bias[no] over the [Ro][Co][No][B] output.
void add_bias(std::span<double> output, const tensor::Tensor& bias,
              const conv::ConvShape& shape) {
  std::size_t i = 0;
  for (std::int64_t px = 0; px < shape.ro() * shape.co(); ++px)
    for (std::int64_t no = 0; no < shape.no; ++no)
      for (std::int64_t b = 0; b < shape.batch; ++b) output[i++] += bias.at(no);
}

// d_bias[no] = sum of d_output[ro][co][no][b], accumulated in (ro, co, b)
// order.
void bias_gradient(std::span<const double> d_output, tensor::Tensor& d_bias,
                   const conv::ConvShape& shape) {
  d_bias.zero();
  std::size_t i = 0;
  for (std::int64_t px = 0; px < shape.ro() * shape.co(); ++px)
    for (std::int64_t no = 0; no < shape.no; ++no)
      for (std::int64_t b = 0; b < shape.batch; ++b)
        d_bias.at(no) += d_output[i++];
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
      d_bias_({shape.no}),
      sw_() {
  shape_.validate();
  const double fan_in =
      static_cast<double>(shape.ni * shape.kr * shape.kc);
  rng.fill_normal(filter_.data(), 0.0, std::sqrt(2.0 / fan_in));
}

tensor::Tensor Convolution::forward(const tensor::Tensor& input) {
  if (input.dims() !=
      std::vector<std::int64_t>{shape_.ri, shape_.ci, shape_.ni,
                                shape_.batch}) {
    throw std::invalid_argument("Convolution::forward: input shape mismatch");
  }
  cached_input_ = input;
  tensor::Tensor output = conv::make_output(shape_);
  if (backend_ == ConvBackend::kHostIm2col) {
    conv::im2col_forward(input, filter_, output, shape_);
  } else {
    sw_.forward(input, filter_, output, shape_);
  }
  if (with_bias_) add_bias(output.data(), bias_, shape_);
  return output;
}

tensor::Tensor Convolution::backward(const tensor::Tensor& d_output) {
  if (with_bias_) bias_gradient(d_output.data(), d_bias_, shape_);
  tensor::Tensor d_input = conv::make_input(shape_);
  if (backend_ == ConvBackend::kSimulatedMesh) {
    // Training on the simulated machine end to end: backward-data runs
    // as a forward convolution on transformed tensors, backward-filter
    // as per-tap distributed GEMMs.
    conv::swconv_backward_data(sw_, d_output, filter_, d_input, shape_);
    if (mesh_exec_ == nullptr) {
      mesh_exec_ = std::make_unique<sim::MeshExecutor>(sw_.spec());
    }
    conv::mesh_backward_filter(*mesh_exec_, cached_input_, d_output,
                               d_filter_, shape_);
  } else {
    // GEMM-lowered gradients: same results as the reference loops (see
    // conv_im2col_test), much faster on the host.
    conv::im2col_backward_filter(cached_input_, d_output, d_filter_, shape_);
    conv::im2col_backward_data(d_output, filter_, d_input, shape_);
  }
  return d_input;
}

std::vector<ParamGrad> Convolution::params() {
  std::vector<ParamGrad> out = {ParamGrad{&filter_, &d_filter_}};
  if (with_bias_) out.push_back(ParamGrad{&bias_, &d_bias_});
  return out;
}

bool Convolution::use_api() const {
  return context_ != nullptr && shape_.stride_r == 1 && shape_.stride_c == 1;
}

void Convolution::ensure_host_scratch() {
  if (host_in_.size() != 0) return;
  host_in_ = conv::make_input(shape_);
  host_out_ = conv::make_output(shape_);
  host_dout_ = conv::make_output(shape_);
  host_din_ = conv::make_input(shape_);
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

// Route fidelity: a kHostIm2col layer's compiled path must run the
// same im2col kernels its eager twin runs. It used to be safe to send
// every compiled conv through the API — ragged shapes had no mesh
// mapping, so the API landed on the host im2col fallback anyway — but
// the multigrain mappings (pixel-grained in particular) make almost
// any stride-1 shape mesh-executable, and the mesh kernels accumulate
// in reference (kr,kc,ni) order while im2col lowers K as (ni,kr,kc):
// correct to 1e-15 but not bitwise. The compiled/eager bitwise
// differential therefore requires the layer's declared backend to pick
// the route, not the plan chooser. The host views stage through
// presized members and a private pool, so a steady-state compiled step
// mints no tensors; host_in_ keeps the step's input for backward_view.
void Convolution::forward_view(const tensor::TensorView& input,
                               tensor::TensorView& output) {
  if (backend_ == ConvBackend::kHostIm2col) {
    ensure_host_scratch();
    std::copy(input.data().begin(), input.data().end(),
              host_in_.data().begin());
    conv::im2col_forward(host_in_, filter_, host_out_, shape_, &host_pool_);
    output.copy_from(host_out_);
  } else if (use_api()) {
    input_view_ = input;  // liveness: the planner pins it to our backward
    context_->conv_forward(shape_, input.data().data(), filter_.data().data(),
                           output.data().data());
  } else {
    output.copy_from(forward(input.to_tensor()));  // direct route
    return;
  }
  if (with_bias_) add_bias(output.data(), bias_, shape_);
}

void Convolution::backward_view(const tensor::TensorView& d_output,
                                tensor::TensorView& d_input) {
  if (backend_ == ConvBackend::kSimulatedMesh && !use_api()) {
    d_input.copy_from(backward(d_output.to_tensor()));  // direct route
    return;
  }
  if (with_bias_) bias_gradient(d_output.data(), d_bias_, shape_);
  if (backend_ == ConvBackend::kHostIm2col) {
    ensure_host_scratch();
    std::copy(d_output.data().begin(), d_output.data().end(),
              host_dout_.data().begin());
    conv::im2col_backward_filter(host_in_, host_dout_, d_filter_, shape_,
                                 &host_pool_);
    conv::im2col_backward_data(host_dout_, filter_, host_din_, shape_,
                               &host_pool_);
    d_input.copy_from(host_din_);
    return;
  }
  context_->conv_backward_filter(shape_, input_view_.data().data(),
                                 d_output.data().data(),
                                 d_filter_.data().data());
  context_->conv_backward_data(shape_, filter_.data().data(),
                               d_output.data().data(),
                               d_input.data().data());
}

}  // namespace swdnn::dnn
