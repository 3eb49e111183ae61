#include "src/dnn/pooling.h"

#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

// All pooling loops shard the output-row dimension on the host task
// pool: window rows [r*window, (r+1)*window) are disjoint across output
// rows, so forward writes and backward scatters never collide and the
// results are bitwise-identical to the serial loops at any thread
// count.

MaxPooling::MaxPooling(std::int64_t window) : window_(window) {
  if (window <= 0) throw std::invalid_argument("MaxPooling: window <= 0");
}

std::vector<std::int64_t> MaxPooling::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.size() != 4 || input_dims[0] % window_ != 0 ||
      input_dims[1] % window_ != 0) {
    throw std::invalid_argument(
        "MaxPooling: expects [R][C][N][B] with R,C divisible by window");
  }
  return {input_dims[0] / window_, input_dims[1] / window_, input_dims[2],
          input_dims[3]};
}

void MaxPooling::plan(const std::vector<std::int64_t>& input_dims) {
  const std::vector<std::int64_t> out_dims = infer_shape(input_dims);
  argmax_r_ = tensor::Tensor(out_dims);
  argmax_c_ = tensor::Tensor(out_dims);
}

void MaxPooling::forward_view(const tensor::TensorView& input,
                              tensor::TensorView& output) {
  if (argmax_r_.dims() != output.dims()) {
    argmax_r_ = tensor::Tensor(output.dims());
    argmax_c_ = tensor::Tensor(output.dims());
  }
  const std::int64_t r_out = output.dim(0);
  const std::int64_t c_out = output.dim(1);
  const std::int64_t n = output.dim(2);
  const std::int64_t b = output.dim(3);
  const std::int64_t px = n * b;  // one pixel's [N][B]
  const std::int64_t line = input.dim(1) * px;  // one input row
  const double* in = input.data().data();
  double* out = output.data().data();
  double* arg_r = argmax_r_.data().data();
  double* arg_c = argmax_c_.data().data();
  runtime::parallel_for(0, r_out, 1, [&](std::int64_t rb, std::int64_t re) {
  for (std::int64_t r = rb; r < re; ++r)
    for (std::int64_t c = 0; c < c_out; ++c)
      for (std::int64_t ch = 0; ch < n; ++ch)
        for (std::int64_t bb = 0; bb < b; ++bb) {
          const std::int64_t o = ((r * c_out + c) * n + ch) * b + bb;
          const double* win =
              in + r * window_ * line + c * window_ * px + ch * b + bb;
          double best = win[0];
          std::int64_t br = 0, bc = 0;
          for (std::int64_t dr = 0; dr < window_; ++dr)
            for (std::int64_t dc = 0; dc < window_; ++dc) {
              const double v = win[dr * line + dc * px];
              if (v > best) {
                best = v;
                br = dr;
                bc = dc;
              }
            }
          out[o] = best;
          arg_r[o] = static_cast<double>(br);
          arg_c[o] = static_cast<double>(bc);
        }
  });
}

void MaxPooling::backward_view(const tensor::TensorView& d_output,
                               tensor::TensorView& d_input) {
  d_input.zero();  // the scatter below touches one element per window
  const std::int64_t r_out = d_output.dim(0);
  const std::int64_t c_out = d_output.dim(1);
  const std::int64_t n = d_output.dim(2);
  const std::int64_t b = d_output.dim(3);
  const std::int64_t px = n * b;
  const std::int64_t line = d_input.dim(1) * px;
  const double* dout = d_output.data().data();
  double* din = d_input.data().data();
  const double* arg_r = argmax_r_.data().data();
  const double* arg_c = argmax_c_.data().data();
  runtime::parallel_for(0, r_out, 1, [&](std::int64_t rb, std::int64_t re) {
  for (std::int64_t r = rb; r < re; ++r)
    for (std::int64_t c = 0; c < c_out; ++c)
      for (std::int64_t ch = 0; ch < n; ++ch)
        for (std::int64_t bb = 0; bb < b; ++bb) {
          const std::int64_t o = ((r * c_out + c) * n + ch) * b + bb;
          const auto dr = static_cast<std::int64_t>(arg_r[o]);
          const auto dc = static_cast<std::int64_t>(arg_c[o]);
          din[(r * window_ + dr) * line + (c * window_ + dc) * px + ch * b +
              bb] += dout[o];
        }
  });
}

AvgPooling::AvgPooling(std::int64_t window) : window_(window) {
  if (window <= 0) throw std::invalid_argument("AvgPooling: window <= 0");
}

std::vector<std::int64_t> AvgPooling::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.size() != 4 || input_dims[0] % window_ != 0 ||
      input_dims[1] % window_ != 0) {
    throw std::invalid_argument(
        "AvgPooling: expects [R][C][N][B] with R,C divisible by window");
  }
  return {input_dims[0] / window_, input_dims[1] / window_, input_dims[2],
          input_dims[3]};
}

void AvgPooling::forward_view(const tensor::TensorView& input,
                              tensor::TensorView& output) {
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  runtime::parallel_for(
      0, output.dim(0), 1, [&](std::int64_t rb, std::int64_t re) {
  for (std::int64_t r = rb; r < re; ++r)
    for (std::int64_t c = 0; c < output.dim(1); ++c)
      for (std::int64_t ch = 0; ch < output.dim(2); ++ch)
        for (std::int64_t bb = 0; bb < output.dim(3); ++bb) {
          double sum = 0;
          for (std::int64_t dr = 0; dr < window_; ++dr)
            for (std::int64_t dc = 0; dc < window_; ++dc)
              sum += input.at(r * window_ + dr, c * window_ + dc, ch, bb);
          output.at(r, c, ch, bb) = sum * inv_area;
        }
  });
}

void AvgPooling::backward_view(const tensor::TensorView& d_output,
                               tensor::TensorView& d_input) {
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  runtime::parallel_for(
      0, d_output.dim(0), 1, [&](std::int64_t rb, std::int64_t re) {
  for (std::int64_t r = rb; r < re; ++r)
    for (std::int64_t c = 0; c < d_output.dim(1); ++c)
      for (std::int64_t ch = 0; ch < d_output.dim(2); ++ch)
        for (std::int64_t bb = 0; bb < d_output.dim(3); ++bb) {
          const double g = d_output.at(r, c, ch, bb) * inv_area;
          for (std::int64_t dr = 0; dr < window_; ++dr)
            for (std::int64_t dc = 0; dc < window_; ++dc)
              d_input.at(r * window_ + dr, c * window_ + dc, ch, bb) = g;
        }
  });
}

}  // namespace swdnn::dnn
