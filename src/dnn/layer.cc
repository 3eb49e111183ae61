#include "src/dnn/layer.h"

#include <stdexcept>

namespace swdnn::dnn {

namespace {
// The kernels never write through an input view.
tensor::TensorView view_of(const tensor::Tensor& t) {
  return tensor::TensorView(const_cast<double*>(t.data().data()), t.dims());
}
}  // namespace

tensor::Tensor Layer::forward(const tensor::Tensor& input) {
  tensor::Tensor output(infer_shape(input.dims()));
  eager_input_dims_ = input.dims();
  // backward_view re-reads the input through the view forward_view
  // was given, so that view must outlive the caller's tensor.
  const tensor::Tensor* kept = &input;
  if (backward_needs_input()) {
    eager_input_ = input;
    kept = &eager_input_;
  }
  tensor::TensorView out = view_of(output);
  forward_view(view_of(*kept), out);
  return output;
}

tensor::Tensor Layer::backward(const tensor::Tensor& d_output) {
  if (eager_input_dims_.empty()) {
    throw std::invalid_argument(name() + ": backward before forward");
  }
  tensor::Tensor d_input(eager_input_dims_);
  tensor::TensorView d_in = view_of(d_input);
  backward_view(view_of(d_output), d_in);
  return d_input;
}

std::vector<std::int64_t> Layer::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.empty()) {
    throw std::invalid_argument(name() + ": empty input shape");
  }
  return input_dims;
}

}  // namespace swdnn::dnn
