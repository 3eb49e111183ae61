// Plan explorer: interrogate the performance model for any layer shape —
// the tool a user reaches for before committing a network to the
// machine. Prints the ranked feasible plans with every model component
// (RBW, MBW, EE, the per-level bound factors, LDM footprint).
//
// Usage: plan_explorer [--batch=128] [--ni=128] [--no=256]
//                      [--out=64] [--k=3] [--top=8]

#include <cstdio>
#include <exception>

#include "src/conv/swconv.h"
#include "src/util/cli.h"
#include "src/util/table.h"

int main(int argc, char** argv) try {
  namespace conv = swdnn::conv;
  namespace perf = swdnn::perf;
  using swdnn::util::fmt_double;

  swdnn::util::CliArgs args(argc, argv);
  const auto shape = conv::ConvShape::from_output(
      args.get_int("batch", 128), args.get_int("ni", 128),
      args.get_int("no", 256), args.get_int("out", 64),
      args.get_int("out", 64), args.get_int("k", 3), args.get_int("k", 3));
  const auto top = static_cast<std::size_t>(args.get_int("top", 8));

  const auto& spec = swdnn::arch::default_spec();
  perf::PlanChooser chooser(spec);
  const auto ranked = chooser.rank(shape);

  std::printf("Plan exploration for %s\n", shape.to_string().c_str());
  std::printf("machine: %d CPEs/CG @ %.2f GHz, peak %.1f Gflops/CG, LDM "
              "%zu KB (%zu KB usable)\n\n",
              spec.cpes_per_group(), spec.cpe_clock_ghz,
              spec.peak_gflops_per_cg(), spec.ldm_bytes / 1024,
              (spec.ldm_bytes - spec.ldm_reserved_bytes) / 1024);

  swdnn::util::TextTable table;
  table.set_header({"rank", "plan", "RBW(MEM)", "MBW(MEM)", "mem^2",
                    "RBW(LDM)", "EE", "LDM KB", "Gflops/CG", "chip"});
  for (std::size_t i = 0; i < ranked.size() && i < top; ++i) {
    const auto& c = ranked[i];
    table.add_row(
        {std::to_string(i + 1), c.plan.to_string(),
         fmt_double(c.estimate.rbw_mem_gbs, 1),
         fmt_double(c.estimate.mbw_mem_gbs, 1),
         fmt_double(c.estimate.mem_factor, 2),
         fmt_double(c.estimate.rbw_ldm_gbs, 1),
         fmt_double(c.estimate.ee, 3),
         fmt_double(static_cast<double>(
                        perf::ldm_bytes_required(shape, c.plan, spec)) /
                        1024.0,
                    1),
         fmt_double(c.estimate.gflops_per_cg, 0),
         fmt_double(c.estimate.gflops_chip, 0)});
  }
  std::printf("%s\n", table.render().c_str());

  if (!ranked.empty()) {
    const auto& best = ranked.front();
    std::printf("best plan %s: model %.0f Gflops/CG; modeled layer time "
                "%.2f ms on 4 CGs\n",
                best.plan.to_string().c_str(), best.estimate.gflops_per_cg,
                1e3 * best.estimate.seconds_for(shape.flops()));
  }
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
