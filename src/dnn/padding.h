#pragma once
// Zero padding for [R][C][N][B] activations. swDNN's convolutions are
// valid-only (the paper's configuration space); real networks keep
// spatial size with 'same' padding — composed here as an explicit layer
// in front of the convolution, so the kernels stay exactly the paper's.

#include "src/dnn/layer.h"

namespace swdnn::dnn {

class ZeroPad2d : public Layer {
 public:
  /// Pads `top/bottom` rows and `left/right` columns of zeros.
  ZeroPad2d(std::int64_t top, std::int64_t bottom, std::int64_t left,
            std::int64_t right);

  /// Symmetric padding on both axes ("same" for odd filters: k/2).
  explicit ZeroPad2d(std::int64_t all)
      : ZeroPad2d(all, all, all, all) {}

  std::string name() const override { return "zeropad"; }
  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;

  // Allocation-free views: zero-fill + interior scatter forward,
  // interior gather backward.
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  // Elision: the graph compiler pins this layer's output slot for the
  // whole step and zeroes it once at compile, so the per-step pass
  // writes only the interior — the border zero-fill is paid exactly
  // once per compile instead of once per batch.
  bool is_elidable_pad() const override { return true; }
  void forward_view_elided(const tensor::TensorView& input,
                           tensor::TensorView& output) override;

 private:
  /// Interior scatter input -> output[top_+r][left_+c][n][b].
  static void copy_interior(const tensor::TensorView& input,
                            tensor::TensorView& output, std::int64_t top,
                            std::int64_t left);

  std::int64_t top_, bottom_, left_, right_;
};

}  // namespace swdnn::dnn
