#include "src/dnn/softmax.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {
// Column shards: each batch column is normalized independently.
constexpr std::int64_t kColGrain = 16;
}  // namespace

tensor::Tensor softmax_columns(const tensor::Tensor& logits) {
  if (logits.rank() != 2) {
    throw std::invalid_argument("softmax expects [classes][B]");
  }
  const std::int64_t classes = logits.dim(0);
  const std::int64_t batch = logits.dim(1);
  tensor::Tensor out({classes, batch});
  runtime::parallel_for(
      0, batch, kColGrain, [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
          double max_v = logits.at(0, b);
          for (std::int64_t c = 1; c < classes; ++c) {
            max_v = std::max(max_v, logits.at(c, b));
          }
          double denom = 0;
          for (std::int64_t c = 0; c < classes; ++c) {
            denom += std::exp(logits.at(c, b) - max_v);
          }
          for (std::int64_t c = 0; c < classes; ++c) {
            out.at(c, b) = std::exp(logits.at(c, b) - max_v) / denom;
          }
        }
      });
  return out;
}

std::vector<std::int64_t> Softmax::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.size() != 2) {
    throw std::invalid_argument("softmax expects [classes][B]");
  }
  return input_dims;
}

void Softmax::plan(const std::vector<std::int64_t>& input_dims) {
  cached_output_ = tensor::Tensor(infer_shape(input_dims));
}

void Softmax::forward_view(const tensor::TensorView& input,
                           tensor::TensorView& output) {
  if (cached_output_.dims() != input.dims()) {
    cached_output_ = tensor::Tensor(input.dims());
  }
  const std::int64_t classes = input.dim(0);
  const std::int64_t batch = input.dim(1);
  runtime::parallel_for(
      0, batch, kColGrain, [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
          double max_v = input.at(0, b);
          for (std::int64_t c = 1; c < classes; ++c) {
            max_v = std::max(max_v, input.at(c, b));
          }
          double denom = 0;
          for (std::int64_t c = 0; c < classes; ++c) {
            denom += std::exp(input.at(c, b) - max_v);
          }
          for (std::int64_t c = 0; c < classes; ++c) {
            const double p = std::exp(input.at(c, b) - max_v) / denom;
            output.at(c, b) = p;
            cached_output_.at(c, b) = p;
          }
        }
      });
}

void Softmax::backward_view(const tensor::TensorView& d_output,
                            tensor::TensorView& d_input) {
  const std::int64_t classes = cached_output_.dim(0);
  const std::int64_t batch = cached_output_.dim(1);
  runtime::parallel_for(
      0, batch, kColGrain, [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
          double dot = 0;
          for (std::int64_t c = 0; c < classes; ++c) {
            dot += d_output.at(c, b) * cached_output_.at(c, b);
          }
          for (std::int64_t c = 0; c < classes; ++c) {
            d_input.at(c, b) =
                cached_output_.at(c, b) * (d_output.at(c, b) - dot);
          }
        }
      });
}

}  // namespace swdnn::dnn
