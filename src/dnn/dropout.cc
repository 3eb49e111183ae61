#include "src/dnn/dropout.h"

#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {
constexpr std::int64_t kElemGrain = 4096;

// The mask must be drawn serially — the layer's RNG sequence is part of
// the reproducibility contract — but applying it is elementwise and
// shards freely.
void apply_mask(std::span<const double> in, std::span<const double> m,
                std::span<double> out) {
  runtime::parallel_for(0, static_cast<std::int64_t>(in.size()), kElemGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            const auto s = static_cast<std::size_t>(i);
                            out[s] = in[s] * m[s];
                          }
                        });
}
}  // namespace

Dropout::Dropout(double drop_probability, std::uint64_t seed)
    : drop_probability_(drop_probability), rng_(seed) {
  if (drop_probability < 0.0 || drop_probability >= 1.0) {
    throw std::invalid_argument("Dropout: probability must be in [0, 1)");
  }
}

void Dropout::plan(const std::vector<std::int64_t>& input_dims) {
  mask_ = tensor::Tensor(input_dims);
}

void Dropout::forward_view(const tensor::TensorView& input,
                           tensor::TensorView& output) {
  if (mask_.dims() != input.dims()) mask_ = tensor::Tensor(input.dims());
  auto in = input.data();
  auto m = mask_.data();
  auto o = output.data();
  if (!training_ || drop_probability_ == 0.0) {
    mask_.fill(1.0);
    std::copy(in.begin(), in.end(), o.begin());
    return;
  }
  const double keep_scale = 1.0 / (1.0 - drop_probability_);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const bool keep = rng_.uniform(0.0, 1.0) >= drop_probability_;
    m[i] = keep ? keep_scale : 0.0;
  }
  apply_mask(in, m, o);
}

void Dropout::backward_view(const tensor::TensorView& d_output,
                            tensor::TensorView& d_input) {
  if (d_output.size() != mask_.size()) {
    throw std::invalid_argument("Dropout::backward_view before forward_view");
  }
  apply_mask(d_output.data(), mask_.data(), d_input.data());
}

}  // namespace swdnn::dnn
