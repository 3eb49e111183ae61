// Reproduces paper Table III: performance-model evaluation on one core
// group. For each of the paper's four (plan, shape) rows we print the
// model's required bandwidth (Eq. 1/2), the effective DMA bandwidth,
// the closed-form estimate ("mdl") and a simulator launch ("meas"), side
// by side with the published numbers.
//
// "meas" runs the row's plan on the simulated core group over a slice of
// the paper's shape: all 128 images, one output row and 16 output
// columns. Every tile of these plans does the same work, so each count
// of the whole 64x64 layer is (64*64)/16 times the slice's and the
// throughput is the slice's (conv_vectorized_test checks this on shapes
// small enough to run whole).
//
// Exits 1 if a slice's output differs from conv::reference_forward in
// any bit, or if a row's model/simulator ratio leaves [0.6, 1.0]. The
// simulator's clock never waits (no barrier, bus or DMA stalls), so it
// reads above the model; the ratio bounds how far.

#include <cstdio>
#include <string>
#include <vector>

#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"
#include "src/util/table.h"
#include "workloads.h"

namespace {

struct Row {
  const char* plan;
  std::int64_t kc, bb, bco, ni, no;
  double rbw, mbw, mdl, meas;  // published values
};

constexpr Row kPaperRows[] = {
    {"img", 3, 32, 16, 128, 128, 29.0, 21.9, 368, 350},
    {"img", 3, 32, 8, 128, 256, 23.2, 18.2, 397, 375},
    {"batch", 3, 0, 8, 256, 256, 27.1, 21.2, 422, 410},
    {"batch", 3, 0, 8, 128, 384, 25.7, 21.2, 407, 392},
};

/// Per-shape planning cost with and without the shape-keyed plan cache,
/// written as machine-readable JSON for downstream tooling.
struct CacheSample {
  swdnn::conv::ConvShape shape;
  std::string plan_kind;
  double rank_ns = 0;    ///< one uncached PlanChooser::rank
  double lookup_ns = 0;  ///< one warm PlanCache lookup, averaged
};

void write_plan_cache_json(swdnn::conv::SwConvolution& sw,
                           const std::vector<swdnn::conv::ConvShape>& shapes,
                           const char* path) {
  using swdnn::util::Stopwatch;
  constexpr int kRankReps = 5;
  constexpr int kLookupReps = 20000;

  std::vector<CacheSample> samples;
  sw.clear_plan_cache();
  for (const auto& shape : shapes) {
    CacheSample s;
    s.shape = shape;
    // Uncached: the full candidate walk + model scoring, every call.
    Stopwatch rank_timer;
    for (int i = 0; i < kRankReps; ++i) (void)sw.chooser().rank(shape);
    s.rank_ns = rank_timer.elapsed_seconds() * 1e9 / kRankReps;
    // Cached: one miss to build the entry, then warm lookups.
    const auto entry = sw.ranked_plans(shape).entry;
    s.plan_kind = entry->has_executable()
                      ? swdnn::perf::plan_kind_name(
                            entry->best_executable().plan.kind)
                      : "host-gemm";
    Stopwatch lookup_timer;
    for (int i = 0; i < kLookupReps; ++i) (void)sw.ranked_plans(shape);
    s.lookup_ns = lookup_timer.elapsed_seconds() * 1e9 / kLookupReps;
    samples.push_back(s);
  }

  const auto stats = sw.plan_cache_stats();
  const double hit_rate =
      stats.hits + stats.misses
          ? static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses)
          : 0.0;

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"plan_cache\",\n");
  std::fprintf(f, "  \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(stats.hits));
  std::fprintf(f, "  \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(stats.misses));
  std::fprintf(f, "  \"cache_hit_rate\": %.6f,\n", hit_rate);
  std::fprintf(f, "  \"shapes\": [\n");
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const CacheSample& s = samples[i];
    std::fprintf(
        f,
        "    {\"shape\": \"%s\", \"chosen_plan\": \"%s\", "
        "\"rank_ns_per_call\": %.1f, \"cached_lookup_ns_per_call\": %.1f, "
        "\"speedup\": %.1f}%s\n",
        s.shape.to_string().c_str(), s.plan_kind.c_str(), s.rank_ns,
        s.lookup_ns, s.lookup_ns > 0 ? s.rank_ns / s.lookup_ns : 0.0,
        i + 1 < samples.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (hit rate %.4f over %llu lookups)\n", path, hit_rate,
              static_cast<unsigned long long>(stats.hits + stats.misses));
}

/// The simulated "meas" of one row: its plan launched on a one-row,
/// 16-column slice of the paper shape. Sets `bitwise` to whether the
/// slice's output equals conv::reference_forward exactly.
double simulated_gflops_per_cg(swdnn::conv::SwConvolution& sw,
                               const Row& row,
                               const swdnn::perf::ConvPlan& plan,
                               bool* bitwise) {
  namespace conv = swdnn::conv;
  const auto slice = conv::ConvShape::from_output(128, row.ni, row.no, 1, 16,
                                                  row.kc, row.kc);
  swdnn::util::Rng rng(static_cast<std::uint64_t>(row.ni * 1000 + row.no));
  auto input = conv::make_input(slice);
  auto filter = conv::make_filter(slice);
  rng.fill_uniform(input.data(), -1.0, 1.0);
  rng.fill_uniform(filter.data(), -1.0, 1.0);
  auto expected = conv::make_output(slice);
  conv::reference_forward(input, filter, expected, slice);
  auto actual = conv::make_output(slice);
  const auto result = sw.forward(input, filter, actual, slice, plan);
  *bitwise = expected.max_abs_diff(actual) == 0.0;
  return result.stats.modeled_gflops(plan.double_buffer);
}

}  // namespace

int main() {
  using swdnn::util::TextTable;
  using swdnn::util::fmt_double;

  swdnn::conv::SwConvolution sw;
  const auto& model = sw.chooser().model();

  std::printf("=== Table III: performance model evaluation (1 CG) ===\n");
  std::printf("Columns: ours | (paper). RBW from Eq. (1)/(2); mdl = "
              "closed-form model; meas = simulated core group on a "
              "B=128, 1-row, 16-column slice (paper: silicon).\n\n");

  TextTable table;
  table.set_header({"Plan", "Kc", "bB", "bCo", "Ni", "No", "RBW", "MBW",
                    "mdl", "meas", "mdl/meas", "bitwise"});
  bool ok = true;
  swdnn::util::Stopwatch slice_timer;
  for (const Row& row : kPaperRows) {
    const auto shape = swdnn::bench::paper_shape(row.ni, row.no);
    swdnn::perf::ConvPlan plan;
    if (std::string(row.plan) == "img") {
      plan.kind = swdnn::perf::PlanKind::kImageSizeAware;
      plan.block_b = row.bb;
      plan.block_co = row.bco;
    } else {
      plan.kind = swdnn::perf::PlanKind::kBatchSizeAware;
      plan.block_co = row.bco;
    }
    const auto e = model.estimate(shape, plan);
    bool bitwise = false;
    const double meas = simulated_gflops_per_cg(sw, row, plan, &bitwise);
    const double ratio = e.gflops_per_cg / meas;
    const bool row_ok = bitwise && ratio >= 0.6 && ratio <= 1.0;
    ok = ok && row_ok;
    auto cell = [](double ours, double paper, int digits) {
      return swdnn::util::fmt_double(ours, digits) + " (" +
             swdnn::util::fmt_double(paper, digits) + ")";
    };
    table.add_row({row.plan, std::to_string(row.kc),
                   row.bb ? std::to_string(row.bb) : "-",
                   std::to_string(row.bco), std::to_string(row.ni),
                   std::to_string(row.no), cell(e.rbw_mem_gbs, row.rbw, 1),
                   cell(e.mbw_mem_gbs, row.mbw, 1),
                   cell(e.gflops_per_cg, row.mdl, 0),
                   cell(meas, row.meas, 0),
                   cell(ratio, row.mdl / row.meas, 2),
                   bitwise ? "yes" : "NO"});
  }
  const double slice_seconds = slice_timer.elapsed_seconds();
  std::printf("%s\n", table.render().c_str());

  std::printf("--- Notes ---\n");
  std::printf("* RBW reproduces the published equation values exactly.\n");
  std::printf("* meas > mdl on every row, where the paper has meas < mdl "
              "(ratios 0.95/0.94/0.97/0.96): the simulator charges every "
              "DMA request and flop but never waits on a barrier, a bus "
              "or the DMA engine (EXPERIMENTS.md, known deviations).\n");
  std::printf("* Row 2 is the known model deviation: the paper measured "
              "MBW = 18.2 GB/s in-kernel where our Table II-derived "
              "model cannot go below its 22 GB/s cap "
              "(see EXPERIMENTS.md).\n");
  std::printf("* four slices, reference and simulator: %.2f s of host "
              "time\n",
              slice_seconds);

  // Planning-cost companion: how much the shape-keyed plan cache saves
  // per dispatch on the Table III shapes.
  std::vector<swdnn::conv::ConvShape> shapes;
  for (const Row& row : kPaperRows) {
    const auto shape = swdnn::bench::paper_shape(row.ni, row.no);
    bool seen = false;
    for (const auto& s : shapes) seen |= (s == shape);
    if (!seen) shapes.push_back(shape);
  }
  write_plan_cache_json(sw, shapes, "BENCH_plan_cache.json");
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: a slice differs from the reference, or a row's "
                 "mdl/meas left [0.6, 1.0]\n");
    return 1;
  }
  return 0;
}
