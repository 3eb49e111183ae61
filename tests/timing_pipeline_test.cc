// Section VI: the dual-pipeline schedule simulator must reproduce the
// paper's cycle counts exactly — 26 cycles per iteration for the
// compiler's order, 5 + (n-1)*17 + 16 for the hand-reordered schedule —
// and the EE closed forms derived from them.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/arch/isa.h"
#include "src/timing/kernels.h"
#include "src/timing/pipeline.h"

namespace swdnn::timing {
namespace {

TEST(PipelineSim, OriginalScheduleSingleIterationTakes26Cycles) {
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(original_stream(1));
  EXPECT_EQ(r.cycles, 26u);
  EXPECT_EQ(r.vfmad_count, 16u);
}

TEST(PipelineSim, OriginalScheduleEEMatchesPaper) {
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(original_stream(1));
  EXPECT_NEAR(r.execution_efficiency(), 16.0 / 26.0, 1e-12);
  EXPECT_NEAR(ee_original_closed_form(), 0.615, 1e-3);
}

TEST(PipelineSim, ReorderedPrologueIs5Cycles) {
  // With a single iteration: 5-cycle prologue + 16-cycle exit body.
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(reordered_stream(1));
  EXPECT_EQ(r.cycles, 21u);
  EXPECT_EQ(cycles_reordered_closed_form(1), 21u);
}

class ReorderedIterations : public ::testing::TestWithParam<int> {};

TEST_P(ReorderedIterations, MatchesClosedForm) {
  const int n = GetParam();
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(reordered_stream(n));
  EXPECT_EQ(r.cycles, cycles_reordered_closed_form(n)) << "n=" << n;
  EXPECT_EQ(r.vfmad_count, static_cast<std::uint64_t>(16 * n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReorderedIterations,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 32, 48, 64));

TEST(PipelineSim, SteadyStateIterationIs17Cycles) {
  DualPipelineSimulator sim;
  const auto c8 = sim.simulate(reordered_stream(8)).cycles;
  const auto c9 = sim.simulate(reordered_stream(9)).cycles;
  EXPECT_EQ(c9 - c8, 17u);
}

TEST(PipelineSim, ReorderedBeatsOriginalForAllIterationCounts) {
  DualPipelineSimulator sim;
  for (int n : {1, 2, 4, 8, 16, 48}) {
    EXPECT_LT(sim.simulate(reordered_stream(n)).cycles,
              sim.simulate(original_stream(n)).cycles)
        << "n=" << n;
  }
}

class EeClosedForm : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(EeClosedForm, SimulatedEEMatchesPaperFormula) {
  const std::int64_t ni = GetParam();
  EXPECT_NEAR(simulated_ee(ni, /*reordered=*/true),
              ee_reordered_closed_form(ni), 1e-12)
      << "Ni=" << ni;
}

INSTANTIATE_TEST_SUITE_P(ChannelSweep, EeClosedForm,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 384));

TEST(PipelineSim, SimulatedEEIsTheReplayOnEveryCallAndThread) {
  // simulated_ee is computed once per (trip count, schedule); every call,
  // from any thread, returns the replay's value bitwise.
  std::vector<double> expected;
  for (std::int64_t ni = 1; ni <= 96; ni += 5) {
    const int n = inner_iterations_for_channels(ni);
    for (bool reordered : {false, true}) {
      const auto stream = reordered ? reordered_stream(n) : original_stream(n);
      expected.push_back(
          DualPipelineSimulator().simulate(stream).execution_efficiency());
    }
  }
  std::vector<std::thread> callers;
  std::vector<int> mismatches(4, 0);
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    callers.emplace_back([&mismatches, &expected, t] {
      for (int pass = 0; pass < 2; ++pass) {
        std::size_t i = 0;
        for (std::int64_t ni = 1; ni <= 96; ni += 5) {
          for (bool reordered : {false, true}) {
            if (simulated_ee(ni, reordered) != expected[i++]) ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(PipelineSim, EEGrowsWithChannelCount) {
  // "larger Ni will get higher execution efficiency."
  double prev = 0;
  for (std::int64_t ni : {16, 32, 64, 128, 256, 384}) {
    const double ee = ee_reordered_closed_form(ni);
    EXPECT_GT(ee, prev);
    prev = ee;
  }
  // And approaches but never reaches 16/17.
  EXPECT_LT(ee_reordered_closed_form(384), 16.0 / 17.0);
  EXPECT_GT(ee_reordered_closed_form(384), 0.93);
}

TEST(PipelineSim, EEAt128ChannelsMatchesHandComputation) {
  // Ni=128 -> n=16 iterations: 256 FMAs / (5 + 15*17 + 16) = 256/276.
  EXPECT_NEAR(ee_reordered_closed_form(128), 256.0 / 276.0, 1e-12);
}

TEST(PipelineSim, DualIssueOnlyInReorderedSchedule) {
  DualPipelineSimulator sim;
  EXPECT_EQ(sim.simulate(original_stream(1)).dual_issue_cycles, 0u);
  EXPECT_GT(sim.simulate(reordered_stream(4)).dual_issue_cycles, 0u);
}

TEST(PipelineSim, EmptyStream) {
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate({});
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.execution_efficiency(), 0.0);
}

TEST(PipelineSim, RawHazardStallsConsumer) {
  // load r1; vfmad r2 += r1*r1 — the FMA must wait out the 4-cycle
  // load-to-use latency.
  arch::InstructionStream s;
  s.push_back(arch::make_vload(1, 100));
  s.push_back(arch::make_vfmad(2, 1, 1));
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(s);
  // load at cycle 1, ready at 5, FMA issues at 5.
  EXPECT_EQ(r.cycles, 5u);
  EXPECT_EQ(r.stall_cycles, 3u);
}

TEST(PipelineSim, IndependentLoadPairsWithFma) {
  // vfmad r2 += r0*r1 ; vload r3 — different pipelines, no hazard: one
  // cycle.
  arch::InstructionStream s;
  s.push_back(arch::make_vfmad(2, 0, 1));
  s.push_back(arch::make_vload(3, 100));
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(s);
  EXPECT_EQ(r.cycles, 1u);
  EXPECT_EQ(r.dual_issue_cycles, 1u);
}

TEST(PipelineSim, WawHazardPreventsPairing) {
  // vfmad r2 ... ; vload r2 — WAW on r2 forbids dual issue.
  arch::InstructionStream s;
  s.push_back(arch::make_vfmad(2, 0, 1));
  s.push_back(arch::make_vload(2, 100));
  DualPipelineSimulator sim;
  EXPECT_EQ(sim.simulate(s).dual_issue_cycles, 0u);
}

TEST(PipelineSim, BranchIssuesAlone) {
  arch::InstructionStream s;
  s.push_back(arch::make_branch(40));
  s.push_back(arch::make_vload(1, 100));
  DualPipelineSimulator sim;
  const SimResult r = sim.simulate(s);
  EXPECT_EQ(r.cycles, 2u);
  EXPECT_EQ(r.dual_issue_cycles, 0u);
}

TEST(IsaTable, PipelineClassesMatchPaper) {
  using arch::Opcode;
  using arch::PipelineClass;
  EXPECT_EQ(arch::op_info(Opcode::kVfmad).pipeline, PipelineClass::kP0Only);
  EXPECT_EQ(arch::op_info(Opcode::kVload).pipeline, PipelineClass::kP1Only);
  EXPECT_EQ(arch::op_info(Opcode::kBranch).pipeline, PipelineClass::kP1Only);
  EXPECT_EQ(arch::op_info(Opcode::kPutr).pipeline, PipelineClass::kP1Only);
  EXPECT_EQ(arch::op_info(Opcode::kAddi).pipeline, PipelineClass::kEither);
}

TEST(IsaTable, LatenciesMatchPaper) {
  EXPECT_EQ(arch::op_info(arch::Opcode::kVload).latency_cycles, 4);
  EXPECT_EQ(arch::op_info(arch::Opcode::kVfmad).latency_cycles, 7);
}

}  // namespace
}  // namespace swdnn::timing
