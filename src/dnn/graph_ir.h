#pragma once
// Graph IR for compiled networks.
//
// Network::compile lowers the layer vector into a chain of graph nodes
// and runs a small pass pipeline over it before liveness planning — the
// swTVM move of treating the model as an IR to optimize rather than a
// list to walk:
//
//   * epilogue fusion: a conv/FC producer followed by an elementwise
//     activation collapses into ONE node. Fusion is a schedule only:
//     the node runs the producer's kernel into its output slot, then
//     the activation's kernel in place over it. The intermediate
//     activation value disappears from the graph, so the arena never
//     materializes it.
//   * pad elision: a zero-pad node keeps its output slot pinned for the
//     whole step; the borders are zeroed once at compile and each step
//     writes only the interior, eliding the per-step full-tensor zero.
//
// Passes never change results: a fused node runs the unfused layers'
// own kernels (the differential suite asserts bitwise equality against
// eager), and a pattern that cannot be proven safe (strided conv off
// the API route, non-adjacent pairs) is simply left unfused.

#include <cstddef>
#include <string>
#include <vector>

#include "src/dnn/layer.h"

namespace swdnn::sim {
class EventTracer;
}  // namespace swdnn::sim

namespace swdnn::dnn {

enum class NodeKind {
  kSingle,     ///< one layer, dispatched via forward_view
  kFusedAct,   ///< conv/FC + activation epilogue in place on one slot
  kElidedPad,  ///< zero-pad with pinned output slot, interior-only copy
};

/// One executable node: a contiguous run of layers [first_layer,
/// last_layer] (inclusive; a range only for fused nodes) consuming
/// activation value `input_value` and producing `output_value`. Values
/// are indexed like Network's activation list: value v is the output of
/// layer v-1, value 0 the network input — fusion removes the interior
/// value of a collapsed pair from the graph entirely.
struct GraphNode {
  NodeKind kind = NodeKind::kSingle;
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  std::string name;  ///< "conv#0" or "conv#0+relu#1" for fused nodes
  std::size_t input_value = 0;
  std::size_t output_value = 0;

  bool fused() const { return last_layer != first_layer; }
};

/// What the pass pipeline did, surfaced through CompiledStats.
struct PassStats {
  std::size_t fused_conv_act = 0;
  std::size_t fused_fc_act = 0;
  std::size_t elided_pads = 0;
};

class GraphIR {
 public:
  /// Lowers the layer vector into the initial one-node-per-layer chain.
  void build(const std::vector<LayerPtr>& layers);

  /// Runs the pass pipeline over the built graph. `fuse` = false leaves
  /// the chain untouched (the no-pass compiled baseline). Emits one
  /// "fusion" trace instant per pass application when `tracer` is set.
  void run_passes(const std::vector<LayerPtr>& layers,
                  sim::EventTracer* tracer, bool fuse);

  const std::vector<GraphNode>& nodes() const { return nodes_; }
  const PassStats& stats() const { return stats_; }

  void clear();

 private:
  void fuse_epilogues(const std::vector<LayerPtr>& layers,
                      sim::EventTracer* tracer);
  void elide_pads(const std::vector<LayerPtr>& layers,
                  sim::EventTracer* tracer);

  std::vector<GraphNode> nodes_;
  PassStats stats_;
};

}  // namespace swdnn::dnn
