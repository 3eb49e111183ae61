#pragma once
// Fully-connected layer over [features][B] activations (the paper's
// classifier stage). A rank-4 [R][C][N][B] input is accepted and viewed
// as [R*C*N][B] — row-major flattening is exactly that reshape.
//
// One kernel pair, forward_view/backward_view, serves the eager wrapper
// and the compiled graph. Bound, or unbound on kSimulatedMesh, the
// layer is a 1x1 convolution at the API boundary ([1][1][in][B]
// activations, [1][1][in][out] filter: the transpose of the [out][in]
// storage, staged through scratch sized from the batch on first use)
// dispatched through a BackendContext (the bound one, else a private
// one made on first use). Unbound on kHostGemm it runs the packed host
// GEMM.

#include <memory>

#include "src/conv/shape.h"
#include "src/dnn/layer.h"
#include "src/util/rng.h"

namespace swdnn::dnn {

enum class FcBackend {
  kHostGemm,       ///< blocked GEMM on the host
  kSimulatedMesh,  ///< the 1x1-conv API route onto the SW26010 simulator
};

class FullyConnected : public Layer {
 public:
  FullyConnected(std::int64_t in_features, std::int64_t out_features,
                 util::Rng& rng, FcBackend backend = FcBackend::kHostGemm);
  ~FullyConnected() override;

  std::string name() const override { return "fc"; }
  std::vector<ParamGrad> params() override;

  std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims) override;
  bool backward_needs_input() const override { return true; }
  void bind(BackendContext* context) override { context_ = context; }
  void plan(const std::vector<std::int64_t>& input_dims) override;
  void forward_view(const tensor::TensorView& input,
                    tensor::TensorView& output) override;
  void backward_view(const tensor::TensorView& d_output,
                     tensor::TensorView& d_input) override;

  // Graph fusion: once bound, a following elementwise activation
  // shares this layer's node and runs in place over its output.
  bool supports_fused_epilogue() const override {
    return context_ != nullptr;
  }

  const tensor::Tensor& weights() const { return weights_; }
  const tensor::Tensor& bias() const { return bias_; }

 private:
  /// True when the views take the 1x1-conv API route.
  bool use_api() const {
    return context_ != nullptr || backend_ == FcBackend::kSimulatedMesh;
  }
  /// Sizes api_shape_ and the transpose scratch for `batch`.
  void size_api_route(std::int64_t batch);

  std::int64_t in_features_;
  std::int64_t out_features_;
  FcBackend backend_;
  tensor::Tensor weights_;  ///< [out][in]
  tensor::Tensor bias_;     ///< [out]
  tensor::Tensor d_weights_;
  tensor::Tensor d_bias_;

  BackendContext* context_ = nullptr;            // set by bind()
  std::unique_ptr<BackendContext> own_context_;  // unbound mesh layers
  conv::ConvShape api_shape_;              // the 1x1-conv view
  std::vector<double> w_t_;                // [in][out] transposed weights
  std::vector<double> dw_t_;               // [in][out] transposed gradient
  tensor::TensorView input_view_;          // forward's input, kept live
};

}  // namespace swdnn::dnn
