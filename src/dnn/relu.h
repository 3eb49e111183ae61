#pragma once
// ReLU activation (elementwise, any tensor rank).

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class Relu : public Layer {
 public:
  std::string name() const override { return "relu"; }

  // The mask is presized at plan() time, so the steady-state compiled
  // step is allocation-free and the input dies right after this
  // layer's forward (backward reads only the mask).
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  // Fusion: ReLU rides a conv/FC node as its epilogue, running these
  // same kernels in place over the producer's output.
  bool is_fusible_epilogue() const override { return true; }

 private:
  tensor::Tensor mask_;  ///< 1 where input > 0
};

}  // namespace swdnn::dnn
