#include "src/dnn/network.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "src/api/swdnn_api.h"
#include "src/dnn/backend_context.h"
#include "src/sim/trace.h"

namespace swdnn::dnn {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Network::Network() = default;
Network::~Network() = default;
// Moves are safe even when compiled: the arena's buffer and the owned
// context keep their addresses, so views and the raw context_ pointer
// stay valid.
Network::Network(Network&&) noexcept = default;
Network& Network::operator=(Network&&) noexcept = default;

Layer& Network::add(LayerPtr layer) {
  uncompile();  // the graph no longer matches the layer list
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

std::vector<LayerPtr> Network::release_layers() {
  uncompile();
  return std::move(layers_);
}

const CompiledStats& Network::compile(
    const std::vector<std::int64_t>& input_dims,
    const CompileOptions& options) {
  if (layers_.empty()) {
    throw std::logic_error("Network::compile: no layers");
  }
  uncompile();

  // 1. Shape inference: every activation's dims, input first. A bad
  // stack (mismatched features, non-divisible pooling) fails here,
  // before any math runs.
  std::vector<std::vector<std::int64_t>> dims;
  dims.reserve(layers_.size() + 1);
  dims.push_back(input_dims);
  for (auto& layer : layers_) {
    dims.push_back(layer->infer_shape(dims.back()));
  }

  // 2. One backend context for every heavy layer: shared if the caller
  // provides one (data-parallel replicas), else owned. Tuning is on
  // before any plan(), so every entry the warm-ups build dispatches its
  // predicted fastest plan.
  if (options.context != nullptr) {
    context_ = options.context;
  } else {
    owned_context_ = std::make_unique<BackendContext>(options.spec);
    context_ = owned_context_.get();
  }
  tracer_ = options.tracer;
  if (tracer_ != nullptr) context_->set_event_tracer(tracer_);
  api::set_autotune(context_->handle(), true);
  for (auto& layer : layers_) layer->bind(context_);
  for (std::size_t i = 0; i < layers_.size(); ++i) layers_[i]->plan(dims[i]);

  // 3. Graph lowering and passes. Fusion collapses conv/FC +
  // activation pairs into single nodes (their interior activation value
  // vanishes from the graph); elision marks zero-pads whose output slot
  // stays pinned so only the interior is written per step.
  graph_.build(layers_);
  graph_.run_passes(layers_, tracer_, options.fuse);
  const auto& nodes = graph_.nodes();
  const int N = static_cast<int>(nodes.size());

  // 4. Node-based liveness. The timeline is t = 0..2N-1: forward of
  // node i at t = i, backward of node i at t = 2N-1-i. The value node i
  // consumes is produced at t = i-1 (the network input at t = 0) and
  // read by node i's forward; it must survive to node i's *backward*
  // only when the node's producer layer re-reads its input there
  // (conv/FC). Nodes that cache internally (relu mask, pool argmax,
  // softmax output) let their input die right after forward — that
  // early death is where the arena's reuse comes from. An elided pad's
  // output is pinned over the whole step ([0, 2N-1]) so its borders,
  // zeroed once below, are never scribbled on by slot reuse. The
  // gradient of node i's input is written at t = 2N-1-i and read at
  // t = 2N-i (the next backward step, or the caller's copy-out).
  constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  const std::size_t num_values = layers_.size() + 1;
  std::vector<std::size_t> act_slot(num_values, kNoSlot);
  std::vector<std::size_t> grad_slot(num_values, kNoSlot);
  for (int i = 0; i < N; ++i) {
    const GraphNode& node = nodes[static_cast<std::size_t>(i)];
    const std::size_t v = node.input_value;
    int begin = i == 0 ? 0 : i - 1;
    int end = layers_[node.first_layer]->backward_needs_input() ? 2 * N - 1 - i
                                                                : i;
    if (i > 0 &&
        nodes[static_cast<std::size_t>(i - 1)].kind == NodeKind::kElidedPad) {
      begin = 0;
      end = 2 * N - 1;
    }
    act_slot[v] = arena_.request(dims[v], begin, end);
    grad_slot[v] = arena_.request(dims[v], 2 * N - 1 - i, 2 * N - i);
  }
  {
    const GraphNode& last = nodes.back();
    const std::size_t v = last.output_value;
    int begin = N - 1;
    int end = N - 1;
    if (last.kind == NodeKind::kElidedPad) {
      begin = 0;
      end = 2 * N - 1;
    }
    act_slot[v] = arena_.request(dims[v], begin, end);
    grad_slot[v] = arena_.request(dims[v], N - 1, N);
  }
  arena_.plan();  // packs, allocates, and alias-checks

  act_views_.assign(num_values, tensor::TensorView{});
  grad_views_.assign(num_values, tensor::TensorView{});
  for (std::size_t v = 0; v < num_values; ++v) {
    if (act_slot[v] != kNoSlot) act_views_[v] = arena_.view(act_slot[v]);
    if (grad_slot[v] != kNoSlot) grad_views_[v] = arena_.view(grad_slot[v]);
  }
  // One-time border zero for elided pads: their pinned slots start all
  // zero and each step rewrites only the interior.
  for (const GraphNode& node : nodes) {
    if (node.kind == NodeKind::kElidedPad) {
      act_views_[node.output_value].zero();
    }
  }

  forward_result_ = tensor::Tensor(dims.back());
  backward_result_ = tensor::Tensor(dims.front());

  stats_ = CompiledStats{};
  stats_.arena_peak_bytes = arena_.peak_bytes();
  stats_.arena_naive_bytes = arena_.naive_bytes();
  stats_.arena_slots = arena_.num_slots();
  stats_.arena_allocations = arena_.allocations();
  stats_.activation_dims = std::move(dims);
  stats_.graph_nodes = nodes.size();
  stats_.fused_conv_act = graph_.stats().fused_conv_act;
  stats_.fused_fc_act = graph_.stats().fused_fc_act;
  stats_.elided_pads = graph_.stats().elided_pads;
  compiled_ = true;
  return stats_;
}

void Network::uncompile() {
  // Eager conv/FC views dispatch through a bound context, which may be
  // about to die with owned_context_.
  for (auto& layer : layers_) layer->bind(nullptr);
  compiled_ = false;
  graph_.clear();
  arena_.reset();
  act_views_.clear();
  grad_views_.clear();
  stats_ = CompiledStats{};
  context_ = nullptr;
  owned_context_.reset();
  tracer_ = nullptr;
}

const tensor::Tensor& Network::forward(const tensor::Tensor& input) {
  if (compiled_ && !run_eager_) return forward_compiled(input);
  tensor::Tensor activation = input;
  for (auto& layer : layers_) {
    activation = layer->forward(activation);
  }
  forward_result_ = std::move(activation);
  return forward_result_;
}

const tensor::Tensor& Network::backward(const tensor::Tensor& d_output) {
  if (compiled_ && !run_eager_) return backward_compiled(d_output);
  tensor::Tensor grad = d_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    grad = layers_[i]->backward(grad);
    if (backward_hook_) backward_hook_(i, i);
  }
  backward_result_ = std::move(grad);
  return backward_result_;
}

const tensor::Tensor& Network::forward_compiled(const tensor::Tensor& input) {
  if (input.dims() != stats_.activation_dims.front()) {
    throw std::invalid_argument(
        "Network::forward: input dims do not match the compiled shape " +
        input.shape_string());
  }
  const auto& nodes = graph_.nodes();
  act_views_.front().copy_from(input);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const GraphNode& node = nodes[i];
    tensor::TensorView& in = act_views_[node.input_value];
    tensor::TensorView& out = act_views_[node.output_value];
    const std::uint64_t begin = now_ns();
    switch (node.kind) {
      case NodeKind::kSingle:
        layers_[node.first_layer]->forward_view(in, out);
        break;
      case NodeKind::kFusedAct:
        // The producer writes the node's slot; the epilogue runs in
        // place over it.
        layers_[node.first_layer]->forward_view(in, out);
        layers_[node.last_layer]->forward_view(out, out);
        break;
      case NodeKind::kElidedPad:
        layers_[node.first_layer]->forward_view_elided(in, out);
        break;
    }
    trace_node(i, "fwd", in.size() * 8, out.size() * 8, begin, now_ns());
  }
  act_views_[nodes.back().output_value].copy_to(forward_result_);
  return forward_result_;
}

const tensor::Tensor& Network::backward_compiled(
    const tensor::Tensor& d_output) {
  if (d_output.dims() != stats_.activation_dims.back()) {
    throw std::invalid_argument(
        "Network::backward: gradient dims do not match the compiled shape " +
        d_output.shape_string());
  }
  const auto& nodes = graph_.nodes();
  grad_views_[nodes.back().output_value].copy_from(d_output);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    const GraphNode& node = nodes[i];
    tensor::TensorView& d_out = grad_views_[node.output_value];
    tensor::TensorView& d_in = grad_views_[node.input_value];
    const std::uint64_t begin = now_ns();
    switch (node.kind) {
      case NodeKind::kFusedAct:
        // d_out is clobbered in place by the epilogue's backward; that
        // gradient value is dead once this node returns.
        layers_[node.last_layer]->backward_view(d_out, d_out);
        layers_[node.first_layer]->backward_view(d_out, d_in);
        break;
      case NodeKind::kSingle:
      case NodeKind::kElidedPad:
        layers_[node.first_layer]->backward_view(d_out, d_in);
        break;
    }
    trace_node(i, "bwd", d_out.size() * 8, d_in.size() * 8, begin, now_ns());
    if (backward_hook_) backward_hook_(node.first_layer, node.last_layer);
  }
  grad_views_.front().copy_to(backward_result_);
  return backward_result_;
}

void Network::trace_node(std::size_t node_index, const char* phase,
                         std::int64_t bytes_in, std::int64_t bytes_out,
                         std::uint64_t begin_ns, std::uint64_t end_ns) {
  if (tracer_ == nullptr) return;
  char name[160];
  std::snprintf(name, sizeof(name), "%s %s in=%lldB out=%lldB",
                graph_.nodes()[node_index].name.c_str(), phase,
                static_cast<long long>(bytes_in),
                static_cast<long long>(bytes_out));
  tracer_->record(/*cpe=*/0, "layer", name, begin_ns, end_ns);
}

void Network::set_training(bool training) {
  training_ = training;
  for (auto& layer : layers_) layer->set_mode(training);
}

std::vector<ParamGrad> Network::params() {
  std::vector<ParamGrad> all;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) all.push_back(p);
  }
  return all;
}

}  // namespace swdnn::dnn
