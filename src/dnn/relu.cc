#include "src/dnn/relu.h"

#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

namespace {
// Elementwise kernels shard the flat index space; a coarse grain keeps
// the per-chunk closure overhead negligible against the stream.
constexpr std::int64_t kElemGrain = 4096;
}  // namespace

void Relu::plan(const std::vector<std::int64_t>& input_dims) {
  mask_ = tensor::Tensor(input_dims);
}

void Relu::forward_view(const tensor::TensorView& input,
                        tensor::TensorView& output) {
  if (mask_.dims() != input.dims()) mask_ = tensor::Tensor(input.dims());
  auto in = input.data();
  auto m = mask_.data();
  auto o = output.data();
  runtime::parallel_for(
      0, static_cast<std::int64_t>(in.size()), kElemGrain,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const bool on = in[static_cast<std::size_t>(i)] > 0.0;
          m[static_cast<std::size_t>(i)] = on ? 1.0 : 0.0;
          o[static_cast<std::size_t>(i)] =
              on ? in[static_cast<std::size_t>(i)] : 0.0;
        }
      });
}

void Relu::backward_view(const tensor::TensorView& d_output,
                         tensor::TensorView& d_input) {
  if (d_output.size() != mask_.size()) {
    throw std::invalid_argument("Relu::backward_view before forward_view");
  }
  auto d = d_output.data();
  auto m = mask_.data();
  auto o = d_input.data();
  runtime::parallel_for(
      0, static_cast<std::int64_t>(d.size()), kElemGrain,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          o[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i)] *
                                           m[static_cast<std::size_t>(i)];
        }
      });
}

}  // namespace swdnn::dnn
