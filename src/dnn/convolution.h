#pragma once
// Convolution layer (valid) over [R][C][N][B] activations.
//
// One kernel pair, forward_view/backward_view, serves the eager wrapper
// and the compiled graph; the declared backend picks the route:
//   * kHostIm2col (default): im2col + blocked GEMM on the host, any
//     stride — the route that is practical at training sizes.
//   * kSimulatedMesh: all three heavy ops go through a BackendContext
//     (the compiled network's, else a private one made on first use)
//     onto the SW26010 simulator. Stride 1 only: a strided shape throws
//     the context's std::invalid_argument.
// Both are checked against the naive reference in tests.

#include <memory>

#include "src/conv/shape.h"
#include "src/dnn/layer.h"
#include "src/tensor/pool.h"
#include "src/util/rng.h"

namespace swdnn::dnn {

enum class ConvBackend {
  kHostIm2col,    ///< im2col + blocked GEMM on the host
  kSimulatedMesh, ///< Algorithms 1/2 on the SW26010 simulator
};

class Convolution : public Layer {
 public:
  /// Initializes the filter with He-scaled normal weights. With
  /// `with_bias` a zero-initialized per-output-channel bias is added
  /// after the convolution (and its gradient accumulated in backward).
  Convolution(const conv::ConvShape& shape, util::Rng& rng,
              ConvBackend backend = ConvBackend::kHostIm2col,
              bool with_bias = false);
  ~Convolution() override;

  std::string name() const override { return "conv"; }
  std::vector<ParamGrad> params() override;

  // Views. backward_view re-reads the input forward_view was given:
  // the arena (compiled) or the eager wrapper's copy keeps it live, so
  // no copy-cache is taken here. A kHostIm2col layer stages its
  // tensors through a private pool once bound (a compiled step mints
  // none), through plain tensors freed after each call otherwise.
  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;
  bool backward_needs_input() const override { return true; }
  void bind(BackendContext* context) override { context_ = context; }
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  // Graph fusion: on the API route a following elementwise epilogue
  // shares this layer's node and runs in place over its output.
  bool supports_fused_epilogue() const override { return use_api(); }

  const tensor::Tensor& filter() const { return filter_; }
  tensor::Tensor& mutable_filter() { return filter_; }
  const conv::ConvShape& shape() const { return shape_; }

  const tensor::Tensor& bias() const { return bias_; }
  bool has_bias() const { return with_bias_; }

 private:
  conv::ConvShape shape_;
  ConvBackend backend_;
  bool with_bias_;
  tensor::Tensor filter_;
  tensor::Tensor d_filter_;
  tensor::Tensor bias_;    ///< [No]; unused when !with_bias_
  tensor::Tensor d_bias_;

  /// True when the compiled path can route this layer through the API
  /// boundary (bound context + stride-1 shape).
  bool use_api() const;

  /// A kHostIm2col staging tensor (the im2col kernels take tensors,
  /// not views) and the pool its kernels recycle through: the private
  /// pool when bound, none otherwise.
  tensor::PooledTensor host_tensor(const std::vector<std::int64_t>& dims);
  tensor::PooledTensor host_copy(const tensor::TensorView& view);
  tensor::TensorPool* host_pool();

  BackendContext* context_ = nullptr;        // set by bind()
  std::unique_ptr<BackendContext> own_context_;  // unbound mesh layers
  tensor::TensorView input_view_;            // forward's input, kept live
  tensor::TensorPool host_pool_;
};

}  // namespace swdnn::dnn
