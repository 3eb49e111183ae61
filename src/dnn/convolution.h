#pragma once
// Convolution layer (valid) over [R][C][N][B] activations.
//
// Forward runs the im2col+GEMM host path by default — the functional
// route that is practical at training sizes on the host — and can be
// switched to the simulated-mesh path (SwConvolution) to exercise the
// full SW26010 pipeline on mesh-compatible shapes. Both are checked
// against the naive reference in tests. Backward lowers both gradients
// to GEMMs: im2col on the host, backward-data as a forward convolution
// and per-tap mesh GEMMs on the simulated mesh.

#include <optional>

#include "src/conv/shape.h"
#include "src/conv/swconv.h"
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

  std::string name() const override { return "conv"; }
  tensor::Tensor forward(const tensor::Tensor& input) override;
  tensor::Tensor backward(const tensor::Tensor& d_output) override;
  std::vector<ParamGrad> params() override;

  // Views. A kHostIm2col layer runs the eager im2col kernels, staged
  // through presized scratch and a private pool (allocation-free, any
  // stride). A kSimulatedMesh layer dispatches all three heavy ops
  // through the shared BackendContext handle (plan cache + fault
  // ladder + tracer); the arena keeps its input alive until its
  // backward step, so no copy-cache is taken. Off the API route
  // (strided, or unbound) it runs the eager forward/backward over the
  // views.
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
  tensor::Tensor cached_input_;
  conv::SwConvolution sw_;
  /// Persistent executor for the backward-filter launches on the mesh
  /// backend (created on first use; its mesh and fiber stacks are reused
  /// across training steps). Layers are not called concurrently, so no
  /// lock.
  std::unique_ptr<sim::MeshExecutor> mesh_exec_;

  /// True when the compiled path can route this layer through the API
  /// boundary (bound context + stride-1 shape).
  bool use_api() const;

  BackendContext* context_ = nullptr;     // set by bind()
  tensor::TensorView input_view_;         // the arena keeps it live

  // A kHostIm2col layer's view scratch (route fidelity: see
  // forward_view), sized on the first view call.
  void ensure_host_scratch();
  tensor::Tensor host_in_, host_out_, host_dout_, host_din_;
  tensor::TensorPool host_pool_;
};

}  // namespace swdnn::dnn
