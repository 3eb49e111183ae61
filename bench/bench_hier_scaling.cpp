// Hierarchical scale-out: the multi-CG scaling bench grown to the full
// node x CG hierarchy (DESIGN.md §17). Four sections:
//
//   (a) the original Section III-D view — output rows partitioned
//       across the four CGs of one node, checked bitwise (the intra-CG
//       level of the hierarchy);
//   (b) the modeled 1..4 CG scaling table at paper scale;
//   (c) the exchange scaling curve 1 -> 16 replicas: flat ring vs the
//       NoC-intra + ring-inter + broadcast hierarchy, with the
//       per-level time breakdown;
//   (d) measured (modeled-deterministic) training steps on the
//       HierarchicalTrainer at 16 replicas: hierarchical vs flat
//       exchange time, overlapped vs serialized step time, and the
//       bitwise contract — flat serialized, hierarchical serialized and
//       hierarchical overlapped must land on identical parameters.
//
// This bench is a CI gate: it exits non-zero unless, at 16 replicas,
// the hierarchy beats the flat ring by >= 1.3x on exchange time, the
// overlapped schedule beats the serialized one by >= 1.2x on step
// time, and the three execution modes are bitwise-identical. All times
// come from the deterministic interconnect/compute models, so the gate
// is machine-independent. Results land in BENCH_hier_scaling.json.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/dnn/convolution.h"
#include "src/dnn/fully_connected.h"
#include "src/dnn/pooling.h"
#include "src/dnn/relu.h"
#include "src/dnn/trainer.h"
#include "src/parallel/hierarchical.h"
#include "src/util/rng.h"
#include "src/util/table.h"
#include "workloads.h"

namespace {

using namespace swdnn;
using parallel::ExchangeMode;
using parallel::HierStepOptions;
using parallel::HierStepReport;
using parallel::HierTopology;

constexpr int kCgsPerNode = 4;
constexpr int kReplicas = 16;
constexpr int kShardBatch = 16;
constexpr int kSteps = 4;
constexpr double kHierGate = 1.3;
constexpr double kOverlapGate = 1.2;

/// The training workload: conv compute up front (late in backward, so
/// it overlaps the FC buckets' exchange) and a parameter-heavy FC head
/// (early in backward, so its bucket starts reducing first).
std::unique_ptr<dnn::Network> make_net() {
  util::Rng rng(4242);
  auto net = std::make_unique<dnn::Network>();
  net->emplace<dnn::Convolution>(
      conv::ConvShape::from_output(kShardBatch, 1, 8, 16, 16, 5, 5), rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::MaxPooling>(2);
  net->emplace<dnn::FullyConnected>(8 * 8 * 8, 48, rng);
  net->emplace<dnn::Relu>();
  net->emplace<dnn::FullyConnected>(48, 4, rng);
  return net;
}

struct ModeRun {
  HierStepReport last;
  std::vector<double> params;  ///< replica 0 after kSteps (bitwise sig)
};

ModeRun run_mode(ExchangeMode exchange, bool overlap) {
  parallel::HierarchicalTrainer trainer(
      HierTopology::grid(kReplicas / kCgsPerNode, kCgsPerNode), make_net,
      /*learning_rate=*/0.05, /*momentum=*/0.9);
  trainer.compile({20, 20, 1, kShardBatch});

  dnn::SyntheticBars data(20, 4, 0.05, 777);
  HierStepOptions options;
  options.exchange = exchange;
  options.overlap = overlap;

  ModeRun run;
  for (int s = 0; s < kSteps; ++s) {
    std::vector<dnn::Batch> shards;
    shards.reserve(static_cast<std::size_t>(kReplicas));
    for (int r = 0; r < kReplicas; ++r) {
      shards.push_back(data.sample(kShardBatch));
    }
    run.last = trainer.train_step(shards, options);
  }
  for (const auto& pg : trainer.replica(0).params()) {
    const auto d = pg.param->data();
    run.params.insert(run.params.end(), d.begin(), d.end());
  }
  return run;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main() {
  using swdnn::util::TextTable;
  using swdnn::util::fmt_double;
  namespace conv = swdnn::conv;

  std::printf("=== Hierarchical scale-out (NoC-intra + ring-inter) ===\n\n");

  // (a) Intra-CG level: 4 row partitions on a 4x4 mesh, checked exactly.
  double multi_cg_speedup = 0;
  {
    swdnn::arch::Sw26010Spec spec = swdnn::arch::default_spec();
    spec.mesh_rows = spec.mesh_cols = 4;
    conv::SwConvolution sw(spec);
    const auto shape = conv::ConvShape::from_output(8, 8, 8, 8, 4, 3, 3);
    swdnn::util::Rng rng(1234);
    auto input = conv::make_input(shape);
    auto filter = conv::make_filter(shape);
    rng.fill_uniform(input.data(), -1, 1);
    rng.fill_uniform(filter.data(), -1, 1);
    auto expected = conv::make_output(shape);
    conv::reference_forward(input, filter, expected, shape);
    auto actual = conv::make_output(shape);
    const auto stats = sw.forward_multi_cg(input, filter, actual, shape, 4);
    multi_cg_speedup = stats.scaling_speedup();
    std::printf("intra-CG: functional 4-partition run on %s: max |diff| vs "
                "reference = %.2e, parallel speedup %.2fx\n\n",
                shape.to_string().c_str(), expected.max_abs_diff(actual),
                multi_cg_speedup);
  }

  // (b) Modeled 1..4 CG scaling at paper scale (Section III-D).
  {
    conv::SwConvolution sw;
    const auto shape = swdnn::bench::paper_shape(256, 256);
    const auto choice = sw.plan_for(shape);
    const auto& plan = choice.plan;
    const double model_per_cg = choice.estimate.gflops_per_cg;
    TextTable table;
    table.set_header({"CGs", "Gflops", "speedup", "efficiency"});
    for (int cgs = 1; cgs <= 4; ++cgs) {
      const double rows = static_cast<double>(shape.ro());
      const double part = std::ceil(rows / cgs);
      const double gf = model_per_cg * cgs * (rows / (part * cgs));
      table.add_row({std::to_string(cgs), fmt_double(gf, 0),
                     fmt_double(gf / model_per_cg, 2) + "x",
                     fmt_double(100.0 * gf / (model_per_cg * cgs), 1) + "%"});
    }
    std::printf("modeled multi-CG scaling for %s, plan %s:\n%s\n",
                shape.to_string().c_str(), plan.to_string().c_str(),
                table.render().c_str());
  }

  // (c) Exchange scaling curve 1 -> 16 replicas at this bench's
  // gradient size: flat ring vs hierarchy, per-level breakdown.
  std::int64_t grad_bytes = 0;
  {
    auto net = make_net();
    for (const auto& pg : net->params()) {
      grad_bytes +=
          static_cast<std::int64_t>(pg.param->data().size()) * 8;
    }
  }
  struct CurvePoint {
    int replicas = 0;
    double flat_us = 0;
    swdnn::parallel::HierExchangeBreakdown hier;
  };
  std::vector<CurvePoint> curve;
  {
    TextTable table;
    table.set_header({"replicas", "flat us", "intra-node us", "inter-node us",
                      "broadcast us", "hier us", "speedup"});
    for (int n : {1, 2, 4, 8, 16}) {
      const HierTopology topo = HierTopology::ragged(n, kCgsPerNode);
      std::vector<int> live_per_node;
      for (int j = 0; j < topo.nodes; ++j) {
        live_per_node.push_back(topo.ranks_in_node(j));
      }
      CurvePoint p;
      p.replicas = n;
      p.flat_us = swdnn::parallel::flat_exchange_seconds(grad_bytes, n) * 1e6;
      p.hier = swdnn::parallel::hier_exchange_seconds(grad_bytes,
                                                      live_per_node);
      curve.push_back(p);
      const double hier_us = p.hier.total() * 1e6;
      table.add_row({std::to_string(n), fmt_double(p.flat_us, 2),
                     fmt_double(p.hier.intra_reduce_seconds * 1e6, 2),
                     fmt_double(p.hier.inter_ring_seconds * 1e6, 2),
                     fmt_double(p.hier.intra_broadcast_seconds * 1e6, 2),
                     fmt_double(hier_us, 2),
                     hier_us > 0
                         ? fmt_double(p.flat_us / hier_us, 2) + "x"
                         : "-"});
    }
    std::printf("exchange scaling curve, %lld gradient bytes, %d CGs/node:\n"
                "%s\n",
                static_cast<long long>(grad_bytes), kCgsPerNode,
                table.render().c_str());
  }

  // (d) Training steps at 16 replicas under all three execution modes.
  const ModeRun flat_serial =
      run_mode(ExchangeMode::kFlatRing, /*overlap=*/false);
  const ModeRun hier_serial =
      run_mode(ExchangeMode::kHierarchical, /*overlap=*/false);
  const ModeRun hier_overlap =
      run_mode(ExchangeMode::kHierarchical, /*overlap=*/true);

  const HierStepReport& rep = hier_overlap.last;
  const double hier_speedup = rep.hier_exchange_speedup();
  const double overlap_speedup = rep.overlap_speedup();
  const bool bitwise =
      bitwise_equal(flat_serial.params, hier_serial.params) &&
      bitwise_equal(flat_serial.params, hier_overlap.params);

  std::printf("training at %d replicas (%d nodes x %d CGs), %d steps, "
              "shard batch %d:\n",
              kReplicas, kReplicas / kCgsPerNode, kCgsPerNode, kSteps,
              kShardBatch);
  std::printf("  exchange: flat ring %8.2f us   hierarchy %8.2f us "
              "(reduce %.2f + ring %.2f + bcast %.2f)   speedup %.2fx\n",
              rep.exchange_flat_seconds * 1e6,
              rep.exchange_hier.total() * 1e6,
              rep.exchange_hier.intra_reduce_seconds * 1e6,
              rep.exchange_hier.inter_ring_seconds * 1e6,
              rep.exchange_hier.intra_broadcast_seconds * 1e6, hier_speedup);
  std::printf("  step:     serialized %8.2f us   overlapped %8.2f us   "
              "speedup %.2fx   (fwd %.2f us, bwd %.2f us)\n",
              rep.step_serialized_seconds * 1e6,
              rep.step_overlapped_seconds * 1e6, overlap_speedup,
              rep.forward_seconds * 1e6, rep.backward_seconds * 1e6);
  std::printf("  bitwise (flat serialized == hier serialized == hier "
              "overlapped): %s\n\n",
              bitwise ? "yes" : "NO");

  const bool hier_ok = hier_speedup >= kHierGate;
  const bool overlap_ok = overlap_speedup >= kOverlapGate;
  std::printf("gates: hier exchange >= %.1fx: %s   overlap step >= %.1fx: "
              "%s   bitwise: %s\n",
              kHierGate, hier_ok ? "PASS" : "FAIL", kOverlapGate,
              overlap_ok ? "PASS" : "FAIL", bitwise ? "PASS" : "FAIL");

  const char* path = "BENCH_hier_scaling.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"hier_scaling\",\n");
  std::fprintf(f, "  \"replicas\": %d,\n  \"cgs_per_node\": %d,\n",
               kReplicas, kCgsPerNode);
  std::fprintf(f, "  \"gradient_bytes\": %lld,\n",
               static_cast<long long>(grad_bytes));
  std::fprintf(f, "  \"multi_cg_speedup\": %.3f,\n", multi_cg_speedup);
  std::fprintf(f, "  \"scaling_curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& p = curve[i];
    std::fprintf(
        f,
        "    {\"replicas\": %d, \"flat_us\": %.3f, "
        "\"intra_reduce_us\": %.3f, \"inter_ring_us\": %.3f, "
        "\"intra_broadcast_us\": %.3f, \"hier_us\": %.3f}%s\n",
        p.replicas, p.flat_us, p.hier.intra_reduce_seconds * 1e6,
        p.hier.inter_ring_seconds * 1e6,
        p.hier.intra_broadcast_seconds * 1e6, p.hier.total() * 1e6,
        i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"exchange_flat_us\": %.3f,\n",
               rep.exchange_flat_seconds * 1e6);
  std::fprintf(f, "  \"exchange_hier_us\": %.3f,\n",
               rep.exchange_hier.total() * 1e6);
  std::fprintf(f, "  \"hier_exchange_speedup\": %.3f,\n", hier_speedup);
  std::fprintf(f, "  \"step_serialized_us\": %.3f,\n",
               rep.step_serialized_seconds * 1e6);
  std::fprintf(f, "  \"step_overlapped_us\": %.3f,\n",
               rep.step_overlapped_seconds * 1e6);
  std::fprintf(f, "  \"overlap_speedup\": %.3f,\n", overlap_speedup);
  std::fprintf(f, "  \"bitwise_identical\": %s,\n",
               bitwise ? "true" : "false");
  std::fprintf(f, "  \"gate_hier_speedup_min\": %.2f,\n", kHierGate);
  std::fprintf(f, "  \"gate_overlap_speedup_min\": %.2f,\n", kOverlapGate);
  std::fprintf(f, "  \"gates_passed\": %s\n",
               (hier_ok && overlap_ok && bitwise) ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  return (hier_ok && overlap_ok && bitwise) ? 0 : 1;
}
