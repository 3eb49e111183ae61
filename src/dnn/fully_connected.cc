#include "src/dnn/fully_connected.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/conv/gemm.h"
#include "src/dnn/backend_context.h"
#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {

// dst[c][r] = src[r][c] for a row-major [rows][cols] src: the [out][in]
// weights to the API's [in][out] filter layout, and the gradient back.
void transpose(std::span<const double> src, std::span<double> dst,
               std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      dst[static_cast<std::size_t>(c * rows + r)] =
          src[static_cast<std::size_t>(r * cols + c)];
    }
  }
}

// db[o] = sum_b dOut[o][b], accumulated in ascending b.
void bias_gradient(std::span<const double> d_output, tensor::Tensor& d_bias,
                   std::int64_t batch) {
  d_bias.zero();
  for (std::int64_t o = 0; o < d_bias.size(); ++o) {
    for (std::int64_t b = 0; b < batch; ++b) {
      d_bias.at(o) += d_output[static_cast<std::size_t>(o * batch + b)];
    }
  }
}
}  // namespace

FullyConnected::FullyConnected(std::int64_t in_features,
                               std::int64_t out_features, util::Rng& rng,
                               FcBackend backend)
    : in_features_(in_features),
      out_features_(out_features),
      backend_(backend),
      weights_({out_features, in_features}),
      bias_({out_features}),
      d_weights_({out_features, in_features}),
      d_bias_({out_features}) {
  rng.fill_normal(weights_.data(), 0.0,
                  std::sqrt(2.0 / static_cast<double>(in_features)));
}

FullyConnected::~FullyConnected() = default;

std::vector<ParamGrad> FullyConnected::params() {
  return {ParamGrad{&weights_, &d_weights_}, ParamGrad{&bias_, &d_bias_}};
}

std::vector<std::int64_t> FullyConnected::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.empty()) {
    throw std::invalid_argument("FullyConnected::infer_shape: empty shape");
  }
  std::int64_t features = 1;
  for (std::size_t i = 0; i + 1 < input_dims.size(); ++i) {
    features *= input_dims[i];
  }
  if (features != in_features_) {
    throw std::invalid_argument(
        "FullyConnected: expected " + std::to_string(in_features_) +
        " input features, got " + std::to_string(features));
  }
  return {out_features_, input_dims.back()};
}

void FullyConnected::size_api_route(std::int64_t batch) {
  if (!w_t_.empty() && api_shape_.batch == batch) return;
  api_shape_ = BackendContext::fc_shape(in_features_, out_features_, batch);
  w_t_.assign(static_cast<std::size_t>(in_features_ * out_features_), 0.0);
  dw_t_.assign(w_t_.size(), 0.0);
}

void FullyConnected::plan(const std::vector<std::int64_t>& input_dims) {
  (void)infer_shape(input_dims);  // revalidate
  if (context_ == nullptr) return;
  size_api_route(input_dims.back());
  context_->warm_conv_plan(api_shape_);
}

void FullyConnected::forward_view(const tensor::TensorView& input,
                                  tensor::TensorView& output) {
  input_view_ = input;
  const std::int64_t batch = input.dims().back();
  if (use_api()) {
    size_api_route(batch);
    // Filter layout at the API boundary is [1][1][in][out]: the
    // transpose of the [out][in] storage, restaged whenever the
    // optimizer may have stepped the weights (i.e. every forward).
    transpose(weights_.data(), w_t_, out_features_, in_features_);
    bound_or_own(context_, own_context_)
        .conv_forward(api_shape_, input.data().data(), w_t_.data(),
                      output.data().data());
  } else {
    output.zero();  // the packed GEMM accumulates
    conv::gemm_packed_parallel(out_features_, batch, in_features_,
                               weights_.data(), input.data(), output.data());
  }
  for (std::int64_t o = 0; o < out_features_; ++o) {
    for (std::int64_t b = 0; b < batch; ++b) output.at(o, b) += bias_.at(o);
  }
}

void FullyConnected::backward_view(const tensor::TensorView& d_output,
                                   tensor::TensorView& d_input) {
  const std::int64_t batch = d_output.dim(1);
  bias_gradient(d_output.data(), d_bias_, batch);
  if (use_api()) {
    BackendContext& context = bound_or_own(context_, own_context_);
    // dW through the API's backward-filter: the result comes back in
    // the [1][1][in][out] filter layout and is transposed into
    // [out][in].
    context.conv_backward_filter(api_shape_, input_view_.data().data(),
                                 d_output.data().data(), dw_t_.data());
    transpose(dw_t_, d_weights_.data(), in_features_, out_features_);
    // dx = W^T dOut through backward-data; the flat [in][B] result is
    // the row-major content of whatever rank the input view carries.
    context.conv_backward_data(api_shape_, w_t_.data(),
                               d_output.data().data(), d_input.data().data());
    return;
  }
  const std::span<const double> x = input_view_.data();
  const std::span<const double> dy = d_output.data();
  const auto at = [batch](std::int64_t row, std::int64_t b) {
    return static_cast<std::size_t>(row * batch + b);
  };
  // dW[o][i] = sum_b dOut[o][b] * x[i][b]. Shard over o: each output
  // feature owns its dW row, and the inner b accumulation order matches
  // the serial loop.
  d_weights_.zero();
  runtime::parallel_for(
      0, out_features_, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
          for (std::int64_t b = 0; b < batch; ++b) {
            const double g = dy[at(o, b)];
            for (std::int64_t i = 0; i < in_features_; ++i) {
              d_weights_.at(o, i) += g * x[at(i, b)];
            }
          }
        }
      });
  // dx[i][b] = sum_o W[o][i] * dOut[o][b]. Sharded over i with o as the
  // inner accumulation loop: each (i, b) still sums its o terms in
  // ascending order, so the restructured loop is bitwise-identical to
  // the o-outer form.
  const std::span<double> dx = d_input.data();
  d_input.zero();
  runtime::parallel_for(
      0, in_features_, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          for (std::int64_t o = 0; o < out_features_; ++o) {
            const double w = weights_.at(o, i);
            for (std::int64_t b = 0; b < batch; ++b) {
              dx[at(i, b)] += w * dy[at(o, b)];
            }
          }
        }
      });
}

}  // namespace swdnn::dnn
