#include "src/dnn/fully_connected.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "src/conv/gemm.h"
#include "src/conv/mesh_gemm_driver.h"
#include "src/dnn/backend_context.h"
#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {
tensor::Tensor flatten_to_2d(const tensor::Tensor& t) {
  std::int64_t features = 1;
  for (std::int64_t i = 0; i + 1 < t.rank(); ++i) features *= t.dim(i);
  tensor::Tensor out({features, t.dim(t.rank() - 1)});
  std::copy(t.data().begin(), t.data().end(), out.data().begin());
  return out;
}

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

// db[o] = sum_b dOut[o][b], accumulated in the eager loop's order.
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

tensor::Tensor FullyConnected::forward(const tensor::Tensor& input) {
  in_dims_ = input.dims();
  cached_input_ = flatten_to_2d(input);
  if (cached_input_.dim(0) != in_features_) {
    throw std::invalid_argument("FullyConnected: expected " +
                                std::to_string(in_features_) +
                                " input features, got " +
                                std::to_string(cached_input_.dim(0)));
  }
  const std::int64_t batch = cached_input_.dim(1);
  tensor::Tensor out({out_features_, batch});
  if (backend_ == FcBackend::kSimulatedMesh) {
    // The classifier stage is a GEMM — run it on the distributed mesh
    // GEMM. The driver consumes the weight contraction-major ([in][out]),
    // i.e. transposed from storage.
    std::vector<double> w_t(
        static_cast<std::size_t>(in_features_ * out_features_));
    transpose(weights_.data(), w_t, out_features_, in_features_);
    if (mesh_exec_ == nullptr) {
      mesh_exec_ = std::make_unique<sim::MeshExecutor>();
    }
    conv::mesh_gemm(*mesh_exec_, w_t, cached_input_.data(), out.data(),
                    out_features_, in_features_, batch);
  } else {
    conv::gemm_packed_parallel(out_features_, batch, in_features_,
                               weights_.data(), cached_input_.data(),
                               out.data());
  }
  runtime::parallel_for(
      0, out_features_, 16, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o)
          for (std::int64_t b = 0; b < batch; ++b)
            out.at(o, b) += bias_.at(o);
      });
  return out;
}

tensor::Tensor FullyConnected::backward(const tensor::Tensor& d_output) {
  const std::int64_t batch = cached_input_.dim(1);
  // dW[o][i] = sum_b dOut[o][b] * x[i][b];  db[o] = sum_b dOut[o][b].
  d_weights_.zero();
  d_bias_.zero();
  // Shard over o: each output feature owns its dW row and db slot, and
  // the inner b accumulation order matches the serial loop.
  runtime::parallel_for(
      0, out_features_, 1, [&](std::int64_t o0, std::int64_t o1) {
        for (std::int64_t o = o0; o < o1; ++o) {
          for (std::int64_t b = 0; b < batch; ++b) {
            const double g = d_output.at(o, b);
            d_bias_.at(o) += g;
            for (std::int64_t i = 0; i < in_features_; ++i) {
              d_weights_.at(o, i) += g * cached_input_.at(i, b);
            }
          }
        }
      });
  // dx[i][b] = sum_o W[o][i] * dOut[o][b]. Sharded over i with o as the
  // inner accumulation loop: each (i, b) still sums its o terms in
  // ascending order, so the restructured loop is bitwise-identical to
  // the old o-outer form.
  tensor::Tensor d_flat({in_features_, batch});
  runtime::parallel_for(
      0, in_features_, 1, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          for (std::int64_t o = 0; o < out_features_; ++o) {
            const double w = weights_.at(o, i);
            for (std::int64_t b = 0; b < batch; ++b) {
              d_flat.at(i, b) += w * d_output.at(o, b);
            }
          }
        }
      });
  // Reshape back to the caller's input dims.
  tensor::Tensor d_input(in_dims_);
  std::copy(d_flat.data().begin(), d_flat.data().end(),
            d_input.data().begin());
  return d_input;
}

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

void FullyConnected::plan(const std::vector<std::int64_t>& input_dims) {
  (void)infer_shape(input_dims);  // revalidate
  in_dims_ = input_dims;
  const std::int64_t batch = input_dims.back();
  if (context_ == nullptr) return;
  api_shape_ =
      BackendContext::fc_shape(in_features_, out_features_, batch);
  w_t_.assign(static_cast<std::size_t>(in_features_ * out_features_), 0.0);
  dw_t_.assign(w_t_.size(), 0.0);
  context_->warm_conv_plan(api_shape_);
}

void FullyConnected::forward_view(const tensor::TensorView& input,
                                  tensor::TensorView& output) {
  if (context_ == nullptr) {
    output.copy_from(forward(input.to_tensor()));  // direct route
    return;
  }
  input_view_ = input;  // liveness: the planner pins it to our backward
  // Filter layout at the API boundary is [1][1][in][out]: the
  // transpose of the [out][in] storage, restaged whenever the
  // optimizer may have stepped the weights (i.e. every forward).
  transpose(weights_.data(), w_t_, out_features_, in_features_);
  context_->conv_forward(api_shape_, input.data().data(), w_t_.data(),
                         output.data().data());
  const std::int64_t batch = api_shape_.batch;
  for (std::int64_t o = 0; o < out_features_; ++o) {
    for (std::int64_t b = 0; b < batch; ++b) output.at(o, b) += bias_.at(o);
  }
}

void FullyConnected::backward_view(const tensor::TensorView& d_output,
                                   tensor::TensorView& d_input) {
  if (context_ == nullptr) {
    d_input.copy_from(backward(d_output.to_tensor()));  // direct route
    return;
  }
  bias_gradient(d_output.data(), d_bias_, api_shape_.batch);
  // dW through the API's backward-filter: the result comes back in the
  // [1][1][in][out] filter layout and is transposed into [out][in].
  context_->conv_backward_filter(api_shape_, input_view_.data().data(),
                                 d_output.data().data(), dw_t_.data());
  transpose(dw_t_, d_weights_.data(), in_features_, out_features_);
  // dx = W^T dOut through backward-data; the flat [in][B] result is the
  // row-major content of whatever rank the input view carries.
  context_->conv_backward_data(api_shape_, w_t_.data(),
                               d_output.data().data(),
                               d_input.data().data());
}

}  // namespace swdnn::dnn
