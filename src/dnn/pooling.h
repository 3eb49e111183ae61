#pragma once
// Max pooling over [R][C][N][B] activations (the paper's "subsampling
// layer"). Window = stride (non-overlapping); R and C must divide by
// the window.

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class MaxPooling : public Layer {
 public:
  explicit MaxPooling(std::int64_t window = 2);

  std::string name() const override { return "maxpool"; }

  // The argmax caches are presized at plan() time; backward reads only
  // the argmax offsets, so the input dies after forward.
  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

 private:
  std::int64_t window_;
  tensor::Tensor argmax_r_;  ///< winning row offset per output element
  tensor::Tensor argmax_c_;
};

/// Average pooling (the classic LeNet "subsampling"): same window =
/// stride convention as MaxPooling, gradient spread uniformly.
class AvgPooling : public Layer {
 public:
  explicit AvgPooling(std::int64_t window = 2);

  std::string name() const override { return "avgpool"; }

  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

 private:
  std::int64_t window_;
};

}  // namespace swdnn::dnn
