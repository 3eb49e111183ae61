#include "src/dnn/lrn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

Lrn::Lrn(std::int64_t size, double alpha, double beta, double k)
    : size_(size), alpha_(alpha), beta_(beta), k_(k) {
  if (size <= 0 || size % 2 == 0) {
    throw std::invalid_argument("Lrn: window size must be odd and positive");
  }
}

std::vector<std::int64_t> Lrn::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.size() != 4) {
    throw std::invalid_argument("Lrn: expects [R][C][N][B]");
  }
  return input_dims;
}

void Lrn::forward_view(const tensor::TensorView& input,
                       tensor::TensorView& output) {
  if (cached_input_.dims() != input.dims()) {
    cached_input_ = tensor::Tensor(input.dims());
    cached_scale_ = tensor::Tensor(input.dims());
  }
  input.copy_to(cached_input_);
  const std::int64_t rows = input.dim(0), cols = input.dim(1),
                     channels = input.dim(2), batch = input.dim(3);
  const std::int64_t half = size_ / 2;
  // Row shards write disjoint (r, ...) slices of output/cached_scale_.
  runtime::parallel_for(0, rows, 1, [&](std::int64_t r0, std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      for (std::int64_t b = 0; b < batch; ++b)
        for (std::int64_t ch = 0; ch < channels; ++ch) {
          double sum = 0;
          const std::int64_t lo = std::max<std::int64_t>(0, ch - half);
          const std::int64_t hi =
              std::min<std::int64_t>(channels - 1, ch + half);
          for (std::int64_t m = lo; m <= hi; ++m) {
            const double v = input.at(r, c, m, b);
            sum += v * v;
          }
          const double scale =
              k_ + alpha_ / static_cast<double>(size_) * sum;
          cached_scale_.at(r, c, ch, b) = scale;
          output.at(r, c, ch, b) =
              input.at(r, c, ch, b) * std::pow(scale, -beta_);
        }
  });
}

void Lrn::backward_view(const tensor::TensorView& d_output,
                        tensor::TensorView& d_input) {
  if (cached_input_.dims() != d_output.dims()) {
    throw std::invalid_argument("Lrn::backward_view before forward_view");
  }
  // dy[n]/dx[m] = delta(n,m)*scale[n]^-beta
  //             - 2*beta*alpha/size * x[n]*x[m]*scale[n]^{-beta-1}
  //               (for m in window(n)).
  const std::int64_t rows = d_output.dim(0), cols = d_output.dim(1),
                     channels = d_output.dim(2), batch = d_output.dim(3);
  const std::int64_t half = size_ / 2;
  runtime::parallel_for(0, rows, 1, [&](std::int64_t r0, std::int64_t r1) {
  for (std::int64_t r = r0; r < r1; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      for (std::int64_t b = 0; b < batch; ++b)
        for (std::int64_t m = 0; m < channels; ++m) {
          double grad = 0;
          const std::int64_t lo = std::max<std::int64_t>(0, m - half);
          const std::int64_t hi =
              std::min<std::int64_t>(channels - 1, m + half);
          for (std::int64_t nn = lo; nn <= hi; ++nn) {
            const double scale = cached_scale_.at(r, c, nn, b);
            const double g = d_output.at(r, c, nn, b);
            if (nn == m) {
              grad += g * std::pow(scale, -beta_);
            }
            grad -= g * 2.0 * beta_ * alpha_ /
                    static_cast<double>(size_) *
                    cached_input_.at(r, c, nn, b) *
                    cached_input_.at(r, c, m, b) *
                    std::pow(scale, -beta_ - 1.0);
          }
          d_input.at(r, c, m, b) = grad;
        }
  });
}

}  // namespace swdnn::dnn
