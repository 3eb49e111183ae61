#pragma once
// Elementwise activations beyond ReLU: tanh and the logistic sigmoid —
// the classic CNN-era nonlinearities (LeNet used tanh; sigmoid heads
// predate softmax classifiers).
//
// Both cache the activation output (their backward needs only y), are
// allocation-free on the compiled path once plan() has presized that
// cache, and can ride a conv/FC node as a fused epilogue: the node runs
// forward_view in place over the producer's output — the kernel the
// unfused layer runs, so fused output is bitwise-identical.

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class Tanh : public Layer {
 public:
  std::string name() const override { return "tanh"; }

  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  bool is_fusible_epilogue() const override { return true; }

 private:
  tensor::Tensor cached_output_;
};

class Sigmoid : public Layer {
 public:
  std::string name() const override { return "sigmoid"; }

  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  bool is_fusible_epilogue() const override { return true; }

 private:
  tensor::Tensor cached_output_;
};

}  // namespace swdnn::dnn
