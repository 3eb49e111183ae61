#pragma once
// Column-wise softmax over [classes][B] logits.

#include "src/dnn/layer.h"

namespace swdnn::dnn {

/// Numerically-stable softmax; usable standalone or through the fused
/// SoftmaxCrossEntropy loss (which bypasses this layer's backward).
class Softmax : public Layer {
 public:
  std::string name() const override { return "softmax"; }

  // The output cache is presized at plan() time; backward reads only
  // the cached probabilities, so the logits die right after this
  // layer's forward.
  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

 private:
  tensor::Tensor cached_output_;
};

/// Free-function softmax used by the loss.
tensor::Tensor softmax_columns(const tensor::Tensor& logits);

}  // namespace swdnn::dnn
