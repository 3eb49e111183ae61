#pragma once
// Fully-connected layer over [features][B] activations (the paper's
// classifier stage). A rank-4 [R][C][N][B] input is accepted and viewed
// as [R*C*N][B] — row-major flattening is exactly that reshape.

#include <memory>

#include "src/conv/shape.h"
#include "src/dnn/layer.h"
#include "src/sim/executor.h"
#include "src/util/rng.h"

namespace swdnn::dnn {

enum class FcBackend {
  kHostGemm,       ///< blocked GEMM on the host
  kSimulatedMesh,  ///< the distributed LDM-GEMM on the SW26010 simulator
};

class FullyConnected : public Layer {
 public:
  FullyConnected(std::int64_t in_features, std::int64_t out_features,
                 util::Rng& rng, FcBackend backend = FcBackend::kHostGemm);

  std::string name() const override { return "fc"; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& d_output) override;
  std::vector<ParamGrad> params() override;

  // Compiled path: the layer is a 1x1 convolution at the API boundary
  // ([1][1][in][B] activations, [1][1][in][out] filter — the filter
  // layout is the transpose of the [out][in] storage, staged through
  // presized scratch), so the GEMM rides the shared handle's plan
  // cache and fault ladder instead of calling conv:: directly.
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
  std::int64_t in_features_;
  std::int64_t out_features_;
  FcBackend backend_;
  tensor::Tensor weights_;  ///< [out][in]
  tensor::Tensor bias_;     ///< [out]
  tensor::Tensor d_weights_;
  tensor::Tensor d_bias_;
  tensor::Tensor cached_input_;        ///< flattened [in][B]
  std::vector<std::int64_t> in_dims_;  ///< original input dims
  /// Persistent executor for the mesh-GEMM backend (created on first
  /// use; its mesh and fiber stacks are reused across training steps).
  std::unique_ptr<sim::MeshExecutor> mesh_exec_;

  BackendContext* context_ = nullptr;      // set by bind()
  conv::ConvShape api_shape_;              // the 1x1-conv view; plan() fills
  std::vector<double> w_t_;                // [in][out] transposed weights
  std::vector<double> dw_t_;               // [in][out] transposed gradient
  tensor::TensorView input_view_;          // the arena keeps it live
};

}  // namespace swdnn::dnn
