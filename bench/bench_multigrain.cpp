// Per-shape crossover sweep for the multigrain conv mapping family.
//
// Three views of the same question — "does the chooser pick a
// different mesh mapping per shape regime, and is it right to?":
//   1. Modeled sweeps over the paper's Fig. 7 channel axis and Fig. 9
//      filter axis (B = 128, 64x64 outputs): the incumbents' home
//      turf. The per-PlanKind best modeled score is recorded for every
//      shape so crossovers are visible, not just the winner.
//   2. A modeled ragged-shape grid (small batch, small images, odd
//      channel mixes, large filters) where the incumbents' blocking
//      grids degenerate and the multigrain mappings take over.
//   3. Measured confirmation: on small regimes the winner flips, both
//      routes actually run on the functional simulator — the sim's
//      timed seconds decide, every executed mapping is checked bitwise
//      against the reference convolution, and every launch's
//      LaunchStats against conv::predict_launch.
//
// Emits BENCH_multigrain.json. Exit status is a gate: nonzero unless
// the chooser switches mapping across the sweep AND at least two
// measured regimes show a multigrain winner beating the best
// executable incumbent by >= 1.2x both modeled and sim-measured, with
// all bitwise checks passing and every launch equal to its prediction.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench/workloads.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/perf/plan.h"
#include "src/util/rng.h"

namespace {

using namespace swdnn;
using conv::ConvShape;

/// Best modeled score per mapping family among the *executable* ranked
/// entries of one shape (0.0 = no executable plan of that kind).
struct FamilyScores {
  std::map<perf::PlanKind, double> best;
  std::optional<perf::PlanChoice> winner;          ///< executable[0]
  std::optional<perf::PlanChoice> best_incumbent;  ///< non-multigrain
  std::optional<perf::PlanChoice> best_multigrain;
};

FamilyScores family_scores(conv::SwConvolution& sw, const ConvShape& shape) {
  FamilyScores out;
  const auto lookup = sw.ranked_plans(shape);
  for (std::size_t e : lookup.entry->executable) {
    const perf::PlanChoice& ch = lookup.entry->ranked[e];
    const double g = ch.estimate.gflops_per_cg;
    if (!out.winner) out.winner = ch;
    auto [it, fresh] = out.best.try_emplace(ch.plan.kind, g);
    if (!fresh && g > it->second) it->second = g;
    if (perf::plan_kind_is_multigrain(ch.plan.kind)) {
      if (!out.best_multigrain ||
          g > out.best_multigrain->estimate.gflops_per_cg) {
        out.best_multigrain = ch;
      }
    } else if (!out.best_incumbent ||
               g > out.best_incumbent->estimate.gflops_per_cg) {
      out.best_incumbent = ch;
    }
  }
  return out;
}

double family_best(const FamilyScores& fs, perf::PlanKind kind) {
  const auto it = fs.best.find(kind);
  return it == fs.best.end() ? 0.0 : it->second;
}

/// One modeled sweep row, JSON-ready.
struct SweepRow {
  std::string axis;  ///< "fig7" | "fig9" | "ragged"
  ConvShape shape;
  std::string winner_plan;
  const char* winner_kind = "host";
  double winner_gflops = 0;
  double best_img = 0, best_batch = 0, best_fgrain = 0;
  bool has_incumbent = false;
  double multigrain_modeled_speedup = 0;  ///< best mg / best incumbent
};

SweepRow sweep_shape(conv::SwConvolution& sw, const std::string& axis,
                     const ConvShape& shape) {
  SweepRow row;
  row.axis = axis;
  row.shape = shape;
  const FamilyScores fs = family_scores(sw, shape);
  if (fs.winner) {
    row.winner_plan = fs.winner->plan.to_string();
    row.winner_kind = perf::plan_kind_name(fs.winner->plan.kind);
    row.winner_gflops = fs.winner->estimate.gflops_per_cg;
  } else {
    row.winner_plan = "host";
  }
  row.best_img = family_best(fs, perf::PlanKind::kImageSizeAware);
  row.best_batch = family_best(fs, perf::PlanKind::kBatchSizeAware);
  row.best_fgrain = family_best(fs, perf::PlanKind::kFilterGrained);
  row.has_incumbent = fs.best_incumbent.has_value();
  if (fs.best_incumbent && fs.best_multigrain) {
    row.multigrain_modeled_speedup =
        fs.best_multigrain->estimate.gflops_per_cg /
        fs.best_incumbent->estimate.gflops_per_cg;
  }
  return row;
}

/// One measured regime: both routes run on the simulator.
struct MeasuredRegime {
  std::string name;
  ConvShape shape;
  std::string incumbent_plan, multigrain_plan;
  double incumbent_gflops = 0, multigrain_gflops = 0;  ///< modeled
  double incumbent_seconds = 0, multigrain_seconds = 0;  ///< sim-timed
  double modeled_speedup = 0, measured_speedup = 0;
  bool incumbent_bitwise = false, multigrain_bitwise = false;
  bool predicted = false;  ///< both launches' LaunchStats as predicted
  bool multigrain_wins = false;  ///< chooser winner is multigrain
  bool gate_pass = false;        ///< wins && both speedups >= 1.2x && bitwise
};

constexpr double kGateSpeedup = 1.2;

MeasuredRegime measure_regime(conv::SwConvolution& sw, const std::string& name,
                              const ConvShape& shape) {
  MeasuredRegime r;
  r.name = name;
  r.shape = shape;
  const FamilyScores fs = family_scores(sw, shape);
  if (!fs.best_incumbent || !fs.best_multigrain) {
    std::fprintf(stderr, "regime %s: need both an incumbent and a "
                 "multigrain executable plan\n", name.c_str());
    return r;
  }
  r.incumbent_plan = fs.best_incumbent->plan.to_string();
  r.multigrain_plan = fs.best_multigrain->plan.to_string();
  r.incumbent_gflops = fs.best_incumbent->estimate.gflops_per_cg;
  r.multigrain_gflops = fs.best_multigrain->estimate.gflops_per_cg;
  r.multigrain_wins =
      fs.winner && perf::plan_kind_is_multigrain(fs.winner->plan.kind);

  util::Rng rng(1234);
  tensor::Tensor in = conv::make_input(shape);
  tensor::Tensor w = conv::make_filter(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor ref = conv::make_output(shape);
  conv::reference_forward(in, w, ref, shape);
  const std::size_t bytes = static_cast<std::size_t>(ref.size()) * 8;

  tensor::Tensor out_inc = conv::make_output(shape);
  const conv::ForwardResult inc =
      sw.execute_choice(*fs.best_incumbent, in, w, out_inc, shape);
  r.incumbent_seconds = inc.stats.modeled_seconds();
  r.incumbent_bitwise =
      std::memcmp(out_inc.data().data(), ref.data().data(), bytes) == 0;

  tensor::Tensor out_mg = conv::make_output(shape);
  const conv::ForwardResult mg =
      sw.execute_choice(*fs.best_multigrain, in, w, out_mg, shape);
  r.multigrain_seconds = mg.stats.modeled_seconds();
  r.multigrain_bitwise =
      std::memcmp(out_mg.data().data(), ref.data().data(), bytes) == 0;

  r.predicted =
      inc.stats == conv::predict_launch(shape, inc.choice.plan, sw.spec()) &&
      mg.stats == conv::predict_launch(shape, mg.choice.plan, sw.spec());

  r.modeled_speedup = r.multigrain_gflops / r.incumbent_gflops;
  r.measured_speedup = r.multigrain_seconds > 0
                           ? r.incumbent_seconds / r.multigrain_seconds
                           : 0.0;
  r.gate_pass = r.multigrain_wins && r.incumbent_bitwise &&
                r.multigrain_bitwise && r.modeled_speedup >= kGateSpeedup &&
                r.measured_speedup >= kGateSpeedup;
  return r;
}

void print_row(const SweepRow& row) {
  std::printf("%-6s B=%3" PRId64 " Ni=%3" PRId64 " No=%3" PRId64
              " out=%2" PRId64 " k=%2" PRId64
              " | win %-20s %8.1f | img %8.1f batch %8.1f fgrain %8.1f\n",
              row.axis.c_str(), row.shape.batch, row.shape.ni, row.shape.no,
              row.shape.ro(), row.shape.kr, row.winner_plan.c_str(),
              row.winner_gflops, row.best_img, row.best_batch,
              row.best_fgrain);
}

void json_rows(std::FILE* f, const char* key,
               const std::vector<SweepRow>& rows) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"batch\": %" PRId64 ", \"ni\": %" PRId64 ", \"no\": %" PRId64
        ", \"out\": %" PRId64 ", \"k\": %" PRId64
        ", \"winner\": \"%s\", \"winner_kind\": \"%s\", "
        "\"winner_gflops_per_cg\": %.3f, \"best_img\": %.3f, "
        "\"best_batch\": %.3f, \"best_fgrain\": %.3f, "
        "\"multigrain_modeled_speedup\": %.3f}%s\n",
        r.shape.batch, r.shape.ni, r.shape.no, r.shape.ro(), r.shape.kr,
        r.winner_plan.c_str(), r.winner_kind,
        r.winner_gflops, r.best_img, r.best_batch, r.best_fgrain,
        r.multigrain_modeled_speedup,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

}  // namespace

int main() {
  conv::SwConvolution sw;

  // --- 1/2: modeled sweeps -----------------------------------------
  std::vector<SweepRow> fig7, fig9, ragged;
  for (const ConvShape& s : bench::fig7_configs()) {
    fig7.push_back(sweep_shape(sw, "fig7", s));
  }
  for (const ConvShape& s : bench::fig9_configs()) {
    fig9.push_back(sweep_shape(sw, "fig9", s));
  }
  // Ragged grid: the shapes the paper's figures never sweep — small
  // batch, small images, degenerate channel mixes, oversized filters.
  const std::vector<ConvShape> ragged_shapes = {
      ConvShape::from_output(1, 32, 32, 16, 16, 3, 3),
      ConvShape::from_output(2, 16, 16, 16, 16, 3, 3),
      ConvShape::from_output(4, 32, 32, 8, 8, 5, 5),
      ConvShape::from_output(8, 16, 16, 16, 16, 3, 3),
      ConvShape::from_output(8, 32, 32, 6, 6, 3, 3),
      ConvShape::from_output(8, 32, 32, 6, 6, 5, 5),
      ConvShape::from_output(8, 64, 64, 6, 6, 9, 9),
      ConvShape::from_output(16, 32, 64, 8, 8, 17, 17),
      ConvShape::from_output(16, 64, 64, 8, 8, 3, 3),
      ConvShape::from_output(16, 64, 64, 64, 64, 3, 3),
      ConvShape::from_output(16, 128, 128, 6, 6, 3, 3),
      ConvShape::from_output(32, 64, 64, 8, 8, 3, 3),
      ConvShape::from_output(128, 128, 128, 64, 64, 3, 3),
      ConvShape::from_output(128, 384, 384, 64, 64, 3, 3),
  };
  for (const ConvShape& s : ragged_shapes) {
    ragged.push_back(sweep_shape(sw, "ragged", s));
  }

  std::map<std::string, int> winner_histogram;
  for (const auto* rows : {&fig7, &fig9, &ragged}) {
    for (const SweepRow& r : *rows) {
      if (r.winner_gflops > 0) {
        ++winner_histogram[r.winner_kind];
      }
    }
  }

  std::printf("=== Multigrain crossover sweep: modeled winners ===\n");
  std::printf("fig7 channel axis (%zu shapes) and fig9 filter axis "
              "(%zu shapes): winner histogram\n", fig7.size(), fig9.size());
  for (const auto& [kind, count] : winner_histogram) {
    std::printf("  %-8s wins %3d shapes\n", kind.c_str(), count);
  }
  std::printf("--- ragged grid (per-PlanKind best modeled Gflop/s/CG) ---\n");
  for (const SweepRow& r : ragged) print_row(r);

  // --- 3: measured confirmation ------------------------------------
  // Regimes small enough that the functional simulator runs both
  // routes in seconds. Each pits the best executable incumbent against
  // the best executable multigrain plan on the SAME inputs.
  std::printf("--- measured regimes (timed simulator launches) ---\n");
  std::vector<MeasuredRegime> regimes;
  regimes.push_back(measure_regime(
      sw, "small-image", ConvShape::from_output(8, 32, 32, 6, 6, 3, 3)));
  regimes.push_back(measure_regime(
      sw, "mid-filter", ConvShape::from_output(8, 32, 32, 6, 6, 5, 5)));
  regimes.push_back(measure_regime(
      sw, "small-channel", ConvShape::from_output(8, 16, 16, 16, 16, 3, 3)));
  for (const MeasuredRegime& r : regimes) {
    std::printf("%-14s %s\n  incumbent  %-20s mdl %7.2f Gflop/s  sim "
                "%9.3f ms  bitwise %s\n  multigrain %-20s mdl %7.2f "
                "Gflop/s  sim %9.3f ms  bitwise %s\n  predicted launch "
                "stats: %s\n  speedup: modeled %.2fx, measured %.2fx -> "
                "%s\n",
                r.name.c_str(), r.shape.to_string().c_str(),
                r.incumbent_plan.c_str(), r.incumbent_gflops,
                r.incumbent_seconds * 1e3, r.incumbent_bitwise ? "yes" : "NO",
                r.multigrain_plan.c_str(), r.multigrain_gflops,
                r.multigrain_seconds * 1e3,
                r.multigrain_bitwise ? "yes" : "NO",
                r.predicted ? "exact" : "DIFFER", r.modeled_speedup,
                r.measured_speedup, r.gate_pass ? "PASS" : "fail");
  }

  // --- gate ---------------------------------------------------------
  const bool chooser_switches = winner_histogram.size() >= 2;
  int winning_regimes = 0;
  bool all_bitwise = true;
  bool all_predicted = true;
  for (const MeasuredRegime& r : regimes) {
    if (r.gate_pass) ++winning_regimes;
    all_bitwise = all_bitwise && r.incumbent_bitwise && r.multigrain_bitwise;
    all_predicted = all_predicted && r.predicted;
  }
  const bool gate = chooser_switches && winning_regimes >= 2 && all_bitwise &&
                    all_predicted;
  std::printf("gate: chooser switches mapping: %s, winning measured "
              "regimes: %d/2, bitwise: %s, launches as predicted: %s -> "
              "%s\n",
              chooser_switches ? "yes" : "NO", winning_regimes,
              all_bitwise ? "yes" : "NO", all_predicted ? "yes" : "NO",
              gate ? "PASS" : "FAIL");

  // --- JSON ---------------------------------------------------------
  const char* path = "BENCH_multigrain.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"multigrain\",\n");
  std::fprintf(f, "  \"gate_speedup\": %.2f,\n", kGateSpeedup);
  std::fprintf(f, "  \"winner_histogram\": {");
  {
    std::size_t i = 0;
    for (const auto& [kind, count] : winner_histogram) {
      std::fprintf(f, "%s\"%s\": %d", i++ > 0 ? ", " : "", kind.c_str(),
                   count);
    }
  }
  std::fprintf(f, "},\n");
  json_rows(f, "fig7", fig7);
  json_rows(f, "fig9", fig9);
  json_rows(f, "ragged", ragged);
  std::fprintf(f, "  \"measured_regimes\": [\n");
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    const MeasuredRegime& r = regimes[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"batch\": %" PRId64 ", \"ni\": %" PRId64
        ", \"no\": %" PRId64 ", \"out\": %" PRId64 ", \"k\": %" PRId64
        ", \"incumbent\": \"%s\", \"multigrain\": \"%s\", "
        "\"incumbent_gflops\": %.3f, \"multigrain_gflops\": %.3f, "
        "\"incumbent_sim_seconds\": %.6e, \"multigrain_sim_seconds\": %.6e, "
        "\"modeled_speedup\": %.3f, \"measured_speedup\": %.3f, "
        "\"bitwise\": %s, \"predicted\": %s, \"gate_pass\": %s}%s\n",
        r.name.c_str(), r.shape.batch, r.shape.ni, r.shape.no, r.shape.ro(),
        r.shape.kr, r.incumbent_plan.c_str(), r.multigrain_plan.c_str(),
        r.incumbent_gflops, r.multigrain_gflops, r.incumbent_seconds,
        r.multigrain_seconds, r.modeled_speedup, r.measured_speedup,
        (r.incumbent_bitwise && r.multigrain_bitwise) ? "true" : "false",
        r.predicted ? "true" : "false", r.gate_pass ? "true" : "false",
        i + 1 < regimes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"chooser_switches_mapping\": %s,\n",
               chooser_switches ? "true" : "false");
  std::fprintf(f, "  \"winning_measured_regimes\": %d,\n", winning_regimes);
  std::fprintf(f, "  \"gate_pass\": %s\n", gate ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  return gate ? 0 : 1;
}
