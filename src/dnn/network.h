#pragma once
// Sequential layer container with a compile-then-execute mode.
//
// Eager mode is the seed behaviour: forward/backward walk the layer
// vector, every layer minting fresh tensors around the same view
// kernels the compiled path runs, conv/FC included. compile(input_dims)
// lowers the same network into a graph IR (graph_ir.h) and optimizes it
// the way swTVM/swCaffe treat a model — as a program, not a list:
//   1. shape inference propagates the input dims through every layer's
//      infer_shape, catching shape bugs before any math runs;
//   2. every layer binds to one shared BackendContext and plans
//      (presizing caches, warming the API plan cache); the context's
//      handle tunes (api::set_autotune: each conv plan-cache entry
//      orders its mesh plans by predicted launch time), so a compiled
//      step dispatches its heavy ops on plan-cache hits from batch one;
//   3. a pass pipeline rewrites the graph: conv/FC + activation pairs
//      fuse into single nodes that run the activation in place over
//      the producer's output slot, zero-pad nodes elide their per-step
//      border zeroing;
//   4. a node-based liveness pass places every surviving activation and
//      gradient into the workspace arena (tensor::Arena) — tensors with
//      disjoint lifetimes share bytes, and fused-away intermediates are
//      never materialized at all.
// forward/backward transparently run the compiled path once compiled,
// returning views of presized result buffers so steady-state steps
// allocate nothing; set_run_eager(true) is the escape hatch that forces
// the eager loop on a compiled network, still dispatching through the
// bound context (differential testing asserts the two paths agree
// bitwise: graph executor, arena and fusion against the eager walk).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/dnn/graph_ir.h"
#include "src/dnn/layer.h"
#include "src/tensor/arena.h"

namespace swdnn::arch {
struct Sw26010Spec;
}  // namespace swdnn::arch

namespace swdnn::sim {
class EventTracer;
}  // namespace swdnn::sim

namespace swdnn::dnn {

class BackendContext;

struct CompileOptions {
  /// Shared backend context (e.g. across data-parallel replicas);
  /// nullptr = the network owns a private one.
  BackendContext* context = nullptr;
  /// Machine spec for an owned context; ignored when `context` is set.
  /// nullptr = the real SW26010 numbers.
  const arch::Sw26010Spec* spec = nullptr;
  /// Tracer for per-node "layer" spans, "fusion" pass instants, and
  /// backend events (the warm-up's "plan" instants among them); also
  /// attached to the context. nullptr = no tracing.
  sim::EventTracer* tracer = nullptr;
  /// Run the graph passes (epilogue fusion, pad elision). false = the
  /// one-node-per-layer baseline: the same kernels, bitwise-identical
  /// results, and still allocation-free in the steady state.
  bool fuse = true;
};

/// What compile() decided, for observability and tests.
struct CompiledStats {
  std::int64_t arena_peak_bytes = 0;   ///< packed workspace footprint
  std::int64_t arena_naive_bytes = 0;  ///< one-buffer-per-tensor baseline
  std::size_t arena_slots = 0;
  std::uint64_t arena_allocations = 0;
  /// Inferred dims of every activation: [0] = input, [i+1] = output of
  /// layer i. Fused-away intermediates keep their entry here (the dims
  /// are still inferred) but get no arena slot.
  std::vector<std::vector<std::int64_t>> activation_dims;
  // Graph-pass outcomes.
  std::size_t graph_nodes = 0;      ///< executable nodes after passes
  std::size_t fused_conv_act = 0;   ///< conv+activation pairs collapsed
  std::size_t fused_fc_act = 0;     ///< FC+activation pairs collapsed
  std::size_t elided_pads = 0;      ///< zero-pads with pinned slots
};

class Network {
 public:
  Network();
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  Network(Network&&) noexcept;
  Network& operator=(Network&&) noexcept;

  /// Appends a layer; returns a reference for inline configuration.
  /// Invalidates any previous compile().
  Layer& add(LayerPtr layer);

  /// Convenience: constructs the layer in place.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  /// Surrenders the layer stack (uncompiling first). Pipeline
  /// parallelism uses this to partition one factory-built network into
  /// per-stage sub-networks without re-seeding the parameters.
  std::vector<LayerPtr> release_layers();

  /// Observation hook for gradient-exchange overlap: invoked after each
  /// backward unit completes — per graph node on the compiled path
  /// (first_layer/last_layer spanning fused runs, emitted in the
  /// graph's reverse node order), per layer on the eager path
  /// (first == last). By the time the hook fires, the parameter
  /// gradients of every layer in [first_layer, last_layer] are fully
  /// written for this step, so a collective may start reducing them
  /// while earlier layers are still back-propagating. The hook runs on
  /// the calling thread and must not re-enter this Network. Empty
  /// function detaches.
  using BackwardNodeHook =
      std::function<void(std::size_t first_layer, std::size_t last_layer)>;
  void set_backward_node_hook(BackwardNodeHook hook) {
    backward_hook_ = std::move(hook);
  }

  /// Builds the execution graph for this input shape: shape inference,
  /// graph passes, arena liveness packing, backend binding and plan
  /// warm-up. Throws std::invalid_argument on a shape error.
  /// Re-compiling with a new shape is allowed (the arena is re-planned).
  const CompiledStats& compile(const std::vector<std::int64_t>& input_dims,
                               const CompileOptions& options = {});

  bool compiled() const { return compiled_; }
  const CompiledStats& compiled_stats() const { return stats_; }

  /// The executable graph (empty before compile()).
  const GraphIR& graph() const { return graph_; }

  /// Drops the compiled graph (arena, bindings); eager behaviour only.
  void uncompile();

  /// Escape hatch: when true, forward/backward use the eager loop even
  /// on a compiled network. Differential tests flip this to compare
  /// both paths on one set of weights.
  void set_run_eager(bool run_eager) { run_eager_ = run_eager; }
  bool run_eager() const { return run_eager_; }

  /// The backend context heavy layers dispatch through (null before
  /// compile()); shared or owned per CompileOptions.
  BackendContext* context() { return context_; }

  /// Runs the network. The returned reference is a presized internal
  /// buffer valid until the next forward() (or the Network's death) —
  /// steady-state compiled steps allocate nothing; copy-construct from
  /// it to keep a snapshot.
  const tensor::Tensor& forward(const tensor::Tensor& input);

  /// Backpropagates dLoss/dOutput through every layer; parameter
  /// gradients are left in the layers for the optimizer. Same buffer
  /// contract as forward().
  const tensor::Tensor& backward(const tensor::Tensor& d_output);

  /// All trainable parameters across layers.
  std::vector<ParamGrad> params();

  /// Switches every layer between train and eval behaviour (dropout
  /// masks on/off etc.).
  void set_training(bool training);
  bool training() const { return training_; }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  const tensor::Tensor& forward_compiled(const tensor::Tensor& input);
  const tensor::Tensor& backward_compiled(const tensor::Tensor& d_output);

  /// Emits one "layer" duration span for a graph node (phase and bytes
  /// in/out encoded in the name) when a tracer is attached.
  void trace_node(std::size_t node_index, const char* phase,
                  std::int64_t bytes_in, std::int64_t bytes_out,
                  std::uint64_t begin_ns, std::uint64_t end_ns);

  std::vector<LayerPtr> layers_;
  bool training_ = true;
  BackwardNodeHook backward_hook_;

  // Compiled-graph state.
  bool compiled_ = false;
  bool run_eager_ = false;
  GraphIR graph_;
  tensor::Arena arena_;
  // Indexed by activation value; only values the optimized graph uses
  // ({0} plus every node's output) carry valid views.
  std::vector<tensor::TensorView> act_views_;
  std::vector<tensor::TensorView> grad_views_;
  CompiledStats stats_;
  BackendContext* context_ = nullptr;
  std::unique_ptr<BackendContext> owned_context_;
  sim::EventTracer* tracer_ = nullptr;
  // Presized result buffers backing the forward()/backward() returns.
  tensor::Tensor forward_result_;
  tensor::Tensor backward_result_;
};

}  // namespace swdnn::dnn
