#include "src/dnn/activations.h"

#include <cmath>
#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {
constexpr std::int64_t kElemGrain = 4096;

template <typename Fn>
void elementwise(std::span<const double> in, std::span<double> out, Fn fn) {
  runtime::parallel_for(0, static_cast<std::int64_t>(in.size()), kElemGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            const auto s = static_cast<std::size_t>(i);
                            out[s] = fn(in[s]);
                          }
                        });
}

template <typename Fn>
void elementwise2(std::span<const double> g, std::span<const double> y,
                  std::span<double> out, Fn fn) {
  runtime::parallel_for(0, static_cast<std::int64_t>(g.size()), kElemGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            const auto s = static_cast<std::size_t>(i);
                            out[s] = fn(g[s], y[s]);
                          }
                        });
}
}  // namespace

void Tanh::plan(const std::vector<std::int64_t>& input_dims) {
  cached_output_ = tensor::Tensor(input_dims);
}

void Tanh::forward_view(const tensor::TensorView& input,
                        tensor::TensorView& output) {
  if (cached_output_.size() != input.size()) {
    cached_output_ = tensor::Tensor(input.dims());
  }
  elementwise(input.data(), cached_output_.data(),
              [](double x) { return std::tanh(x); });
  std::copy(cached_output_.data().begin(), cached_output_.data().end(),
            output.data().begin());
}

void Tanh::backward_view(const tensor::TensorView& d_output,
                         tensor::TensorView& d_input) {
  if (d_output.size() != cached_output_.size()) {
    throw std::invalid_argument("Tanh::backward_view before forward_view");
  }
  elementwise2(d_output.data(), cached_output_.data(), d_input.data(),
               [](double g, double y) { return g * (1.0 - y * y); });
}

void Sigmoid::plan(const std::vector<std::int64_t>& input_dims) {
  cached_output_ = tensor::Tensor(input_dims);
}

void Sigmoid::forward_view(const tensor::TensorView& input,
                           tensor::TensorView& output) {
  if (cached_output_.size() != input.size()) {
    cached_output_ = tensor::Tensor(input.dims());
  }
  elementwise(input.data(), cached_output_.data(),
              [](double x) { return 1.0 / (1.0 + std::exp(-x)); });
  std::copy(cached_output_.data().begin(), cached_output_.data().end(),
            output.data().begin());
}

void Sigmoid::backward_view(const tensor::TensorView& d_output,
                            tensor::TensorView& d_input) {
  if (d_output.size() != cached_output_.size()) {
    throw std::invalid_argument("Sigmoid::backward_view before forward_view");
  }
  elementwise2(d_output.data(), cached_output_.data(), d_input.data(),
               [](double g, double y) { return g * y * (1.0 - y); });
}

}  // namespace swdnn::dnn
