#include "src/dnn/graph_ir.h"

#include "src/sim/trace.h"

namespace swdnn::dnn {

namespace {

std::string node_label(const std::vector<LayerPtr>& layers,
                       std::size_t layer_index) {
  return layers[layer_index]->name() + "#" + std::to_string(layer_index);
}

}  // namespace

void GraphIR::build(const std::vector<LayerPtr>& layers) {
  clear();
  nodes_.reserve(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    GraphNode node;
    node.kind = NodeKind::kSingle;
    node.first_layer = i;
    node.last_layer = i;
    node.name = node_label(layers, i);
    node.input_value = i;
    node.output_value = i + 1;
    nodes_.push_back(std::move(node));
  }
}

void GraphIR::run_passes(const std::vector<LayerPtr>& layers,
                         sim::EventTracer* tracer, bool fuse) {
  if (!fuse) return;
  fuse_epilogues(layers, tracer);
  elide_pads(layers, tracer);
}

void GraphIR::fuse_epilogues(const std::vector<LayerPtr>& layers,
                             sim::EventTracer* tracer) {
  std::vector<GraphNode> out;
  out.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    GraphNode node = nodes_[i];
    const bool pair_available =
        node.kind == NodeKind::kSingle && i + 1 < nodes_.size() &&
        nodes_[i + 1].kind == NodeKind::kSingle;
    if (pair_available) {
      Layer& producer = *layers[node.first_layer];
      Layer& epilogue = *layers[nodes_[i + 1].first_layer];
      if (producer.supports_fused_epilogue() &&
          epilogue.is_fusible_epilogue()) {
        node.kind = NodeKind::kFusedAct;
        node.last_layer = nodes_[i + 1].first_layer;
        node.name += "+" + nodes_[i + 1].name;
        node.output_value = nodes_[i + 1].output_value;
        if (producer.name() == "conv") {
          ++stats_.fused_conv_act;
        } else {
          ++stats_.fused_fc_act;
        }
        if (tracer != nullptr) {
          tracer->record_instant(/*cpe=*/0, "fusion", "fuse " + node.name);
        }
        ++i;  // the epilogue node is consumed
      }
    }
    out.push_back(std::move(node));
  }
  nodes_ = std::move(out);
}

void GraphIR::elide_pads(const std::vector<LayerPtr>& layers,
                         sim::EventTracer* tracer) {
  for (GraphNode& node : nodes_) {
    if (node.kind != NodeKind::kSingle) continue;
    if (!layers[node.first_layer]->is_elidable_pad()) continue;
    node.kind = NodeKind::kElidedPad;
    ++stats_.elided_pads;
    if (tracer != nullptr) {
      tracer->record_instant(/*cpe=*/0, "fusion", "elide " + node.name);
    }
  }
}

void GraphIR::clear() {
  nodes_.clear();
  stats_ = PassStats{};
}

}  // namespace swdnn::dnn
