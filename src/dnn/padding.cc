#include "src/dnn/padding.h"

#include <stdexcept>

#include "src/runtime/task_pool.h"

namespace swdnn::dnn {

ZeroPad2d::ZeroPad2d(std::int64_t top, std::int64_t bottom, std::int64_t left,
                     std::int64_t right)
    : top_(top), bottom_(bottom), left_(left), right_(right) {
  if (top < 0 || bottom < 0 || left < 0 || right < 0) {
    throw std::invalid_argument("ZeroPad2d: negative padding");
  }
}

std::vector<std::int64_t> ZeroPad2d::infer_shape(
    const std::vector<std::int64_t>& input_dims) {
  if (input_dims.size() != 4) {
    throw std::invalid_argument("ZeroPad2d: expects [R][C][N][B]");
  }
  return {input_dims[0] + top_ + bottom_, input_dims[1] + left_ + right_,
          input_dims[2], input_dims[3]};
}

void ZeroPad2d::copy_interior(const tensor::TensorView& input,
                              tensor::TensorView& output, std::int64_t top,
                              std::int64_t left) {
  runtime::parallel_for(
      0, input.dim(0), 1, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t c = 0; c < input.dim(1); ++c)
            for (std::int64_t n = 0; n < input.dim(2); ++n)
              for (std::int64_t b = 0; b < input.dim(3); ++b)
                output.at(r + top, c + left, n, b) = input.at(r, c, n, b);
      });
}

void ZeroPad2d::forward_view(const tensor::TensorView& input,
                             tensor::TensorView& output) {
  output.zero();
  copy_interior(input, output, top_, left_);
}

void ZeroPad2d::forward_view_elided(const tensor::TensorView& input,
                                    tensor::TensorView& output) {
  // Borders were zeroed once at compile and the slot is pinned, so
  // only the interior needs refreshing per step.
  copy_interior(input, output, top_, left_);
}

void ZeroPad2d::backward_view(const tensor::TensorView& d_output,
                              tensor::TensorView& d_input) {
  runtime::parallel_for(
      0, d_input.dim(0), 1, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r)
          for (std::int64_t c = 0; c < d_input.dim(1); ++c)
            for (std::int64_t n = 0; n < d_input.dim(2); ++n)
              for (std::int64_t b = 0; b < d_input.dim(3); ++b)
                d_input.at(r, c, n, b) =
                    d_output.at(r + top_, c + left_, n, b);
      });
}

}  // namespace swdnn::dnn
