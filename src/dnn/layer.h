#pragma once
// Layer interface for the swDNN training stack.
//
// The paper positions swDNN as a library "to accelerate deep learning
// applications (especially focused on the training part)", so layers
// implement forward AND backward. Data layout between image layers is
// the canonical [R][C][N][B]; classifier layers view activations as
// [features][B] (the row-major flatten of the first three dims).
//
// Every layer has one kernel pair, forward_view/backward_view over
// TensorViews, and two execution regimes run it:
//   * Eager: the non-virtual forward(Tensor) / backward(Tensor) wrapper
//     allocates one fresh result tensor per call and runs the view
//     kernel over it — the differential baseline the compiled path is
//     compared against.
//   * Compiled: Network::compile() drives infer_shape -> bind -> plan
//     once, then steady-state steps call forward_view/backward_view on
//     arena-backed TensorViews, allocation-free.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/arena.h"
#include "src/tensor/tensor.h"

namespace swdnn::dnn {

class BackendContext;

/// A trainable parameter with its gradient, as exposed to optimizers.
struct ParamGrad {
  tensor::Tensor* param = nullptr;
  tensor::Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Computes the layer output: allocates it (dims from infer_shape,
  /// so a bad shape throws std::invalid_argument), records the input
  /// dims for backward() and runs forward_view. A
  /// backward_needs_input() layer runs it over a copy of the input the
  /// wrapper keeps, so the caller may drop the input before backward().
  tensor::Tensor forward(const tensor::Tensor& input);

  /// Given dLoss/dOutput, accumulates parameter gradients (zeroed at
  /// the start of each call) and returns dLoss/dInput: allocates it
  /// with the last forward()'s input dims and runs backward_view;
  /// throws std::invalid_argument before any forward().
  tensor::Tensor backward(const tensor::Tensor& d_output);

  /// Trainable parameters (empty for activation/pooling layers).
  virtual std::vector<ParamGrad> params() { return {}; }

  /// Train/eval mode switch. Most layers ignore it; stochastic layers
  /// (Dropout) change behaviour. Network::set_training fans it out.
  virtual void set_mode(bool training) { (void)training; }

  // --- compile-time hooks -------------------------------------------

  /// Output dims for the given input dims; throws std::invalid_argument
  /// when the input shape is unacceptable. Default: shape-preserving
  /// (correct for activations, dropout, LRN, softmax).
  virtual std::vector<std::int64_t> infer_shape(
      const std::vector<std::int64_t>& input_dims);

  /// Whether backward() re-reads the *input* activation (conv, FC). The
  /// liveness planner extends the input tensor's lifetime to this
  /// layer's backward step only when true, and the eager wrapper keeps
  /// a copy of the input; layers that cache what they need internally
  /// (relu mask, pool argmax, softmax output) leave it false so their
  /// inputs die early and the arena can reuse the bytes.
  virtual bool backward_needs_input() const { return false; }

  /// Binds the layer to the shared backend context. Called once per
  /// compile, before plan(). Default: no-op (host-only layers).
  virtual void bind(BackendContext* context) { (void)context; }

  /// One-time shape-specific preparation: presize internal caches, warm
  /// the backend plan cache. Called once per compile with the layer's
  /// input dims. Default: no-op.
  virtual void plan(const std::vector<std::int64_t>& input_dims) {
    (void)input_dims;
  }

  // --- kernels (both regimes) ---------------------------------------

  /// Forward kernel: read `input`, write `output`. Resizes internal
  /// caches when the input dims change. Elementwise kernels (the
  /// fusible epilogues) also run in place, with `input` and `output`
  /// the same view.
  virtual void forward_view(const tensor::TensorView& input,
                            tensor::TensorView& output) = 0;

  /// Backward kernel: read `d_output`, write `d_input`, accumulate
  /// parameter gradients. Elementwise kernels also run in place.
  virtual void backward_view(const tensor::TensorView& d_output,
                             tensor::TensorView& d_input) = 0;

  // --- graph-fusion hooks -------------------------------------------
  //
  // The graph compiler (graph_ir.h) collapses producer+epilogue layer
  // pairs into one node and elides zero-pad copies. Layers opt in via
  // the predicates. Fusion is a schedule over the same kernels: a fused
  // node runs the producer's forward_view into the node's output slot,
  // then the epilogue's forward_view in place over it; backward runs
  // the epilogue's backward_view in place, then the producer's.

  /// True when the compiled path may fold a following epilogue layer
  /// into this layer's node (conv/FC on the API route).
  virtual bool supports_fused_epilogue() const { return false; }

  /// True when this layer can ride as the epilogue of a preceding
  /// supports_fused_epilogue() producer: elementwise over the
  /// producer's output, backward state cached internally.
  virtual bool is_fusible_epilogue() const { return false; }

  /// True for zero-padding layers whose compiled output slot the graph
  /// compiler pins and fills by interior copy (borders zeroed once at
  /// compile), eliding the per-step full-tensor zero pass.
  virtual bool is_elidable_pad() const { return false; }

  /// Elided-pad compiled forward: write only the interior; the graph
  /// executor guarantees the output slot's borders are already zero and
  /// never reused within a step. Default falls back to forward_view.
  virtual void forward_view_elided(const tensor::TensorView& input,
                                   tensor::TensorView& output) {
    forward_view(input, output);
  }

 private:
  std::vector<std::int64_t> eager_input_dims_;  ///< last forward()'s input
  tensor::Tensor eager_input_;  ///< its copy, if backward_needs_input()
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace swdnn::dnn
