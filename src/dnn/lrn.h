#pragma once
// Local Response Normalization across channels (AlexNet-era):
//   y[n] = x[n] / (k + alpha/size * sum_{m in window(n)} x[m]^2)^beta
// over [R][C][N][B] activations, window centered on the channel axis.

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class Lrn : public Layer {
 public:
  explicit Lrn(std::int64_t size = 5, double alpha = 1e-4,
               double beta = 0.75, double k = 2.0);

  std::string name() const override { return "lrn"; }
  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;

  // Backward reads the cached copy of the input, so the input itself
  // dies after forward (backward_needs_input() stays false).
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

 private:
  std::int64_t size_;
  double alpha_, beta_, k_;
  tensor::Tensor cached_input_;
  tensor::Tensor cached_scale_;  ///< k + alpha/size * window sum of squares
};

}  // namespace swdnn::dnn
