// Compiled-graph execution vs the eager layer walk on an AlexNet-like
// model: per-batch wall time, tensor allocations per batch, and the
// workspace arena's packed footprint against the one-buffer-per-tensor
// baseline. Results land in BENCH_graph_exec.json.
//
// This bench is a GATE: it exits nonzero unless the compiled path is at
// least as fast as eager (speedup >= 1.0 on the best-of-trials timing)
// AND mints no more tensors per batch than eager. With the steady state
// allocation-free and fused pairs sharing one arena slot, a compiled
// step that loses to eager is a regression.
//
// Both modes run the one compiled network (set_run_eager), so both
// dispatch through its bound context: the convolutions take the host
// im2col route and the two FC layers the simulated mesh either way, and
// the comparison isolates graph execution from the choice of route.
// The trials alternate the modes, so a slow spell of the host slows
// both.

#include <cstdio>
#include <memory>

#include "src/dnn/backend_context.h"
#include "src/dnn/convolution.h"
#include "src/dnn/dropout.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/network.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/softmax.h"
#include "src/tensor/tensor.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace {

constexpr std::int64_t kBatch = 6;
constexpr int kSteps = 5;
constexpr int kTrials = 3;

/// conv5x5(3->20) -> relu -> pool -> conv3x3(20->28) -> relu -> pool ->
/// fc(700->50) -> relu -> dropout -> fc(50->10) -> softmax over
/// 28x28x3 images.
std::unique_ptr<swdnn::dnn::Network> make_model() {
  using namespace swdnn;
  auto net = std::make_unique<dnn::Network>();
  util::Rng rng(1234);
  conv::ConvShape c1;
  c1.batch = kBatch;
  c1.ni = 3;
  c1.no = 20;
  c1.ri = 28;
  c1.ci = 28;
  c1.kr = 5;
  c1.kc = 5;
  net->emplace<dnn::Convolution>(c1, rng, dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);  // 24x24x20 -> 12x12x20
  conv::ConvShape c2;
  c2.batch = kBatch;
  c2.ni = 20;
  c2.no = 28;
  c2.ri = 12;
  c2.ci = 12;
  c2.kr = 3;
  c2.kc = 3;
  net->emplace<dnn::Convolution>(c2, rng, dnn::ConvBackend::kHostIm2col,
                                 /*with_bias=*/true);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);  // 10x10x28 -> 5x5x28
  net->emplace<dnn::FullyConnected>(5 * 5 * 28, 50, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::Dropout>(0.5, 99);
  net->emplace<dnn::FullyConnected>(50, 10, rng);
  net->emplace<dnn::Softmax>();
  return net;
}

struct ModeResult {
  double ns_per_batch = 0;
  double allocs_per_batch = 0;
};

/// Times kSteps forward+backward rounds in the network's current mode.
ModeResult time_steps(swdnn::dnn::Network& net,
                      const swdnn::tensor::Tensor& input,
                      const swdnn::tensor::Tensor& d_out) {
  const std::uint64_t allocs_before = swdnn::tensor::allocation_count();
  swdnn::util::Stopwatch watch;
  for (int s = 0; s < kSteps; ++s) {
    net.forward(input);
    net.backward(d_out);
  }
  ModeResult r;
  r.ns_per_batch = watch.elapsed_seconds() * 1e9 / kSteps;
  r.allocs_per_batch =
      static_cast<double>(swdnn::tensor::allocation_count() -
                          allocs_before) /
      kSteps;
  return r;
}

struct Comparison {
  ModeResult eager;
  ModeResult compiled;
};

/// One untimed warm-up step per mode, then kTrials trials, each timing
/// both modes back to back in an order that alternates trial by trial.
/// Each mode keeps its fastest trial, which filters scheduler noise so
/// the gate compares steady-state costs.
Comparison compare_modes(swdnn::dnn::Network& net,
                         const swdnn::tensor::Tensor& input,
                         const swdnn::tensor::Tensor& d_out) {
  for (const bool eager : {true, false}) {
    net.set_run_eager(eager);
    net.forward(input);
    net.backward(d_out);
  }
  Comparison c;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (int turn = 0; turn < 2; ++turn) {
      const bool eager = (trial + turn) % 2 == 0;
      net.set_run_eager(eager);
      const ModeResult t = time_steps(net, input, d_out);
      ModeResult& best = eager ? c.eager : c.compiled;
      if (trial == 0 || t.ns_per_batch < best.ns_per_batch) {
        best.ns_per_batch = t.ns_per_batch;
      }
      best.allocs_per_batch = t.allocs_per_batch;
    }
  }
  net.set_run_eager(false);
  return c;
}

}  // namespace

int main() {
  using namespace swdnn;

  auto net = make_model();
  tensor::Tensor input({28, 28, 3, kBatch});
  util::Rng data_rng(7);
  data_rng.fill_uniform(input.data(), -1, 1);
  tensor::Tensor d_out({10, kBatch});
  data_rng.fill_uniform(d_out.data(), -1, 1);

  const dnn::CompiledStats& stats = net->compile({28, 28, 3, kBatch});
  const Comparison modes = compare_modes(*net, input, d_out);
  const ModeResult& eager = modes.eager;
  const ModeResult& compiled = modes.compiled;
  const api::PlanCacheCounters cache = net->context()->plan_cache_counters();

  const double reduction_pct =
      100.0 * (1.0 - static_cast<double>(stats.arena_peak_bytes) /
                         static_cast<double>(stats.arena_naive_bytes));
  const double speedup = compiled.ns_per_batch > 0
                             ? eager.ns_per_batch / compiled.ns_per_batch
                             : 0.0;
  const bool throughput_ok = speedup >= 1.0;
  const bool allocs_ok = compiled.allocs_per_batch <= eager.allocs_per_batch;
  const bool gate_pass = throughput_ok && allocs_ok;

  std::printf("=== Compiled graph vs eager execution ===\n");
  std::printf("model: conv5x5(3->20)/pool/conv3x3(20->28)/pool/fc(700->50)/"
              "dropout/fc(50->10), batch %lld, %d timed steps, best of %d "
              "alternating trials\n",
              static_cast<long long>(kBatch), kSteps, kTrials);
  std::printf("eager:     %12.0f ns/batch  %7.1f tensor allocs/batch\n",
              eager.ns_per_batch, eager.allocs_per_batch);
  std::printf("compiled:  %12.0f ns/batch  %7.1f tensor allocs/batch  "
              "(speedup %.2fx)\n",
              compiled.ns_per_batch, compiled.allocs_per_batch, speedup);
  std::printf("graph:     %llu nodes for %zu layers  (%llu conv+act fused, "
              "%llu fc+act fused, %llu pads elided)\n",
              static_cast<unsigned long long>(stats.graph_nodes),
              net->num_layers(),
              static_cast<unsigned long long>(stats.fused_conv_act),
              static_cast<unsigned long long>(stats.fused_fc_act),
              static_cast<unsigned long long>(stats.elided_pads));
  std::printf("arena:     peak %lld B vs naive %lld B  (-%.1f%%), "
              "%zu slots, %llu allocation(s)\n",
              static_cast<long long>(stats.arena_peak_bytes),
              static_cast<long long>(stats.arena_naive_bytes), reduction_pct,
              stats.arena_slots,
              static_cast<unsigned long long>(stats.arena_allocations));
  std::printf("plan cache: %llu hits / %llu misses after compile-time "
              "warm-up\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses));
  std::printf("gate:      %s (throughput %s, allocations %s)\n",
              gate_pass ? "PASS" : "FAIL",
              throughput_ok ? "ok" : "compiled slower than eager",
              allocs_ok ? "ok" : "compiled allocates more than eager");

  const char* path = "BENCH_graph_exec.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"graph_exec\",\n");
  std::fprintf(f, "  \"batch\": %lld,\n", static_cast<long long>(kBatch));
  std::fprintf(f, "  \"timed_steps\": %d,\n", kSteps);
  std::fprintf(f, "  \"trials\": %d,\n", kTrials);
  std::fprintf(f, "  \"eager_ns_per_batch\": %.0f,\n", eager.ns_per_batch);
  std::fprintf(f, "  \"compiled_ns_per_batch\": %.0f,\n",
               compiled.ns_per_batch);
  std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"eager_tensor_allocs_per_batch\": %.1f,\n",
               eager.allocs_per_batch);
  std::fprintf(f, "  \"compiled_tensor_allocs_per_batch\": %.1f,\n",
               compiled.allocs_per_batch);
  std::fprintf(f, "  \"graph_nodes\": %llu,\n",
               static_cast<unsigned long long>(stats.graph_nodes));
  std::fprintf(f, "  \"fused_conv_act\": %llu,\n",
               static_cast<unsigned long long>(stats.fused_conv_act));
  std::fprintf(f, "  \"fused_fc_act\": %llu,\n",
               static_cast<unsigned long long>(stats.fused_fc_act));
  std::fprintf(f, "  \"elided_pads\": %llu,\n",
               static_cast<unsigned long long>(stats.elided_pads));
  std::fprintf(f, "  \"arena_peak_bytes\": %lld,\n",
               static_cast<long long>(stats.arena_peak_bytes));
  std::fprintf(f, "  \"arena_naive_bytes\": %lld,\n",
               static_cast<long long>(stats.arena_naive_bytes));
  std::fprintf(f, "  \"arena_reduction_pct\": %.1f,\n", reduction_pct);
  std::fprintf(f, "  \"arena_slots\": %zu,\n", stats.arena_slots);
  std::fprintf(f, "  \"arena_allocations\": %llu,\n",
               static_cast<unsigned long long>(stats.arena_allocations));
  std::fprintf(f, "  \"plan_cache_hits\": %llu,\n",
               static_cast<unsigned long long>(cache.hits));
  std::fprintf(f, "  \"plan_cache_misses\": %llu,\n",
               static_cast<unsigned long long>(cache.misses));
  std::fprintf(f, "  \"gate_pass\": %s\n", gate_pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  if (!gate_pass) {
    std::fprintf(stderr,
                 "GATE FAILURE: compiled must beat eager "
                 "(speedup %.3f, allocs %.1f vs %.1f)\n",
                 speedup, compiled.allocs_per_batch, eager.allocs_per_batch);
    return 1;
  }
  return 0;
}
