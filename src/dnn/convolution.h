#pragma once
// Convolution layer (valid, stride 1) over [R][C][N][B] activations.
//
// Forward runs the im2col+GEMM host path by default — the functional
// route that is practical at training sizes on the host — and can be
// switched to the simulated-mesh path (SwConvolution) to exercise the
// full SW26010 pipeline on mesh-compatible shapes. Both are checked
// against the naive reference in tests. Backward uses the reference
// gradient kernels.

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

  // Compiled path: all three heavy ops dispatch through the shared
  // BackendContext handle (plan cache + fault ladder + tracer) instead
  // of calling conv:: backends directly; the arena keeps this layer's
  // input alive until its backward step, so no copy-cache is taken.
  // Strided shapes sit outside the API's configuration space, and a
  // kHostIm2col layer keeps its route: both run the eager forward/
  // backward (the direct reference route) over the views.
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
  // (ReLU via the backend's fused mask epilogue; tanh/sigmoid applied
  // in place right after the dispatch) collapses into this layer's
  // node — one backend call, bitwise-identical output.
  bool supports_fused_epilogue() const override { return use_api(); }
  void forward_view_fused(const tensor::TensorView& input,
                          tensor::TensorView& output,
                          Layer& epilogue) override;
  void backward_view_fused(tensor::TensorView& d_output,
                           tensor::TensorView& d_input,
                           Layer& epilogue) override;

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

  // Host-route compiled scratch: a kHostIm2col layer's fused node runs
  // the eager im2col kernels directly (route fidelity — the multigrain
  // mesh mappings accept shapes the host route must keep), staged
  // through presized members and a private pool so steady-state
  // compiled steps mint zero tensors. Sized on first fused call.
  void ensure_host_scratch();
  tensor::Tensor host_in_, host_out_, host_dout_, host_din_;
  tensor::TensorPool host_pool_;
};

}  // namespace swdnn::dnn
