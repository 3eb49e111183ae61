// Pipeline viewer: render the Fig. 6 schedules cycle by cycle — which
// instruction issued to which pipeline when — for the compiler's order
// and the hand-reordered one. The view makes the paper's Section VI
// argument tangible: in the reordered stream almost every cycle
// dual-issues a vfmad (P0) with a load (P1).
//
// Usage: pipeline_viewer [--iterations=2] [--schedule=both|original|reordered]

#include <cstdio>
#include <exception>
#include <map>

#include "src/timing/kernels.h"
#include "src/util/cli.h"

namespace {

void render(const char* title, const swdnn::arch::InstructionStream& stream,
            const swdnn::timing::SimResult& result,
            const swdnn::timing::IssueTrace& trace) {
  std::printf("--- %s: %llu cycles, %llu dual-issue, EE %.1f%% ---\n",
              title, static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.dual_issue_cycles),
              100.0 * result.execution_efficiency());
  std::printf("%-7s %-22s %-22s\n", "cycle", "P0", "P1");

  std::map<std::uint64_t, std::pair<std::string, std::string>> rows;
  for (const auto& e : trace) {
    auto& row = rows[e.cycle];
    const std::string text = stream[e.index].to_string();
    (e.slot == '0' ? row.first : row.second) = text;
  }
  std::uint64_t last = 0;
  for (const auto& [cycle, row] : rows) {
    for (std::uint64_t stall = last + 1; stall < cycle; ++stall) {
      std::printf("%-7llu %-22s %-22s\n",
                  static_cast<unsigned long long>(stall), "(stall)", "");
    }
    std::printf("%-7llu %-22s %-22s\n",
                static_cast<unsigned long long>(cycle), row.first.c_str(),
                row.second.c_str());
    last = cycle;
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) try {
  swdnn::util::CliArgs args(argc, argv);
  const int iterations = static_cast<int>(args.get_int("iterations", 2));
  const std::string which = args.get("schedule", "both");

  swdnn::timing::DualPipelineSimulator sim;
  std::printf("GEMM inner loop, %d iteration(s); vload latency 4, vfmad "
              "latency 7, dual issue per Section VI rules\n\n",
              iterations);

  if (which == "both" || which == "original") {
    const auto stream = swdnn::timing::original_stream(iterations);
    swdnn::timing::IssueTrace trace;
    const auto result = sim.simulate(stream, &trace);
    render("original (compiler) schedule", stream, result, trace);
  }
  if (which == "both" || which == "reordered") {
    const auto stream = swdnn::timing::reordered_stream(iterations);
    swdnn::timing::IssueTrace trace;
    const auto result = sim.simulate(stream, &trace);
    render("reordered schedule (Section VI)", stream, result, trace);
  }
  return 0;
} catch (const std::exception& e) {  // e.g. a malformed numeric flag
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
