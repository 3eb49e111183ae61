// The multigrain mapping family (the filter-grained mesh lowering,
// DESIGN.md §16): bitwise identity with the reference on the ragged /
// small-channel / large-filter shapes the incumbents cannot map, a mesh
// route for every small stride-1 shape, multi-CG partitioning, the
// backward paths that ride on the forward kernels, the refuse-to-map ->
// host fallback, and the measured-autotune confirmation protocol.

#include <gtest/gtest.h>

#include "src/api/swdnn_api.h"
#include "src/conv/backward.h"
#include "src/conv/im2col.h"
#include "src/conv/multigrain.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

struct Problem {
  tensor::Tensor in, w, reference;
  explicit Problem(const ConvShape& shape, unsigned seed = 99)
      : in(make_input(shape)), w(make_filter(shape)),
        reference(make_output(shape)) {
    util::Rng rng(seed);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    reference_forward(in, w, reference, shape);
  }
};

// Ragged, small-channel, and large-filter shapes: none of them divide
// an 8x8 mesh the way the paper's blocked mappings demand.
const ConvShape kRaggedShapes[] = {
    ConvShape::from_output(8, 32, 32, 6, 6, 3, 3),    // tiny image
    ConvShape::from_output(3, 5, 7, 4, 6, 3, 3),      // everything ragged
    ConvShape::from_output(2, 3, 8, 5, 5, 2, 2),      // tiny channels
    ConvShape::from_output(4, 8, 16, 4, 4, 7, 7),     // filter ~ image
    ConvShape::from_output(1, 16, 8, 3, 3, 5, 5),     // single sample
};

TEST(Multigrain, FilterGrainedBitwiseAcrossRaggedShapes) {
  sim::MeshExecutor exec;  // full 8x8 mesh
  for (const ConvShape& shape : kRaggedShapes) {
    SCOPED_TRACE(shape.to_string());
    perf::ConvPlan plan;
    plan.kind = perf::PlanKind::kFilterGrained;
    ASSERT_TRUE(perf::plan_feasible(shape, plan, exec.spec()));
    Problem p(shape);
    tensor::Tensor out = make_output(shape);
    const sim::LaunchStats stats =
        run_filter_grained(exec, p.in, p.w, out, shape, plan);
    EXPECT_FALSE(stats.failed);
    // Bitwise, not close: the mapping accumulates in the reference
    // loop's (kr, kc, ni) order.
    EXPECT_EQ(p.reference.max_abs_diff(out), 0.0);
  }
}

TEST(Multigrain, EveryStrideOneSmallShapeHasAMeshRoute) {
  // No small stride-1 shape falls to the host GEMM: over a grid of
  // batch, channel, image and filter sizes, on every mesh the tests
  // use, the ranking keeps at least one mesh-executable plan.
  int pairs = 0;
  for (int mesh : {2, 4, 8}) {
    arch::Sw26010Spec spec = arch::default_spec();
    spec.mesh_rows = mesh;
    spec.mesh_cols = mesh;
    SwConvolution sw(spec);
    for (std::int64_t b : {1, 2, 4, 8, 16, 32}) {
      for (std::int64_t ni : {1, 3, 7, 16, 32, 64, 200}) {
        for (std::int64_t no : {1, 5, 16, 32, 64}) {
          for (std::int64_t r : {1, 2, 3, 6, 10}) {
            for (std::int64_t k : {1, 3, 5}) {
              if (k > r) continue;
              const ConvShape shape =
                  ConvShape::from_output(b, ni, no, r - k + 1, r - k + 1, k, k);
              EXPECT_TRUE(sw.ranked_plans(shape).entry->has_executable())
                  << "mesh " << mesh << "x" << mesh << ": "
                  << shape.to_string();
              ++pairs;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(pairs, 3 * 2100);
}

TEST(Multigrain, MultiCgRowPartitionsStayBitwise) {
  // The chooser picks filter-grained here; splitting output rows
  // across 4 CGs must not perturb a single bit.
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  SwConvolution sw;
  ASSERT_EQ(sw.plan_for(shape).plan.kind, perf::PlanKind::kFilterGrained);
  Problem p(shape);
  tensor::Tensor out = make_output(shape);
  const sim::MultiCgStats stats = sw.forward_multi_cg(p.in, p.w, out, shape, 4);
  EXPECT_EQ(stats.per_cg.size(), 4u);
  EXPECT_EQ(p.reference.max_abs_diff(out), 0.0);
}

TEST(Multigrain, BackwardDataRunsOnTheMultigrainRoute) {
  // backward-data is a forward convolution on transformed tensors; on
  // a ragged shape its transformed twin is mesh-executable only via
  // the multigrain family. The GEMM-lowered host gradient is the
  // oracle (itself checked against the reference loops elsewhere).
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  const ConvShape bwd = backward_data_shape(shape);
  SwConvolution sw;
  ASSERT_TRUE(perf::plan_kind_is_multigrain(sw.plan_for(bwd).plan.kind));

  util::Rng rng(7);
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  tensor::Tensor d_out = make_output(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  tensor::Tensor expected = make_input(shape);
  im2col_backward_data(d_out, w, expected, shape);

  tensor::Tensor d_in = make_input(shape);
  const ForwardResult result = swconv_backward_data(sw, d_out, w, d_in, shape);
  EXPECT_TRUE(perf::plan_kind_is_multigrain(result.choice.plan.kind));
  EXPECT_LE(expected.max_abs_diff(d_in), 1e-11);
}

TEST(Multigrain, BackwardFilterMatchesTheHostGradient) {
  const ConvShape shape = ConvShape::from_output(3, 5, 7, 4, 6, 3, 3);
  util::Rng rng(8);
  tensor::Tensor in = make_input(shape), d_out = make_output(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(d_out.data(), -1, 1);

  tensor::Tensor expected = make_filter(shape);
  im2col_backward_filter(in, d_out, expected, shape);

  sim::MeshExecutor exec;
  tensor::Tensor d_w = make_filter(shape);
  mesh_backward_filter(exec, in, d_out, d_w, shape);
  EXPECT_LE(expected.max_abs_diff(d_w), 1e-11);
}

TEST(Multigrain, RefuseToMapThrowsForTheHostLadder) {
  // Ni=3 blocks every channel-blocked plan and No=4096 overflows the
  // multigrain tile sets on a 2x2 mesh (per-CPE output-channel share =
  // 2048 doubles before any input or filter tile): nothing is
  // mesh-executable, and the facade must say so (the API layer catches
  // this and takes the host route).
  const ConvShape unmappable = ConvShape::from_output(2, 3, 4096, 3, 3, 2, 2);
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = 2;
  spec.mesh_cols = 2;
  SwConvolution sw(spec);
  const auto lookup = sw.ranked_plans(unmappable);
  EXPECT_TRUE(lookup.entry->executable.empty());
  EXPECT_THROW(sw.plan_for(unmappable, /*require_executable=*/true),
               MeshMappingError);
}

TEST(Multigrain, MeasuredAutotuneRunsAFullFamilyTournament) {
  // The measured protocol times the model's top executable pick
  // against the best executable rival from the other mapping family —
  // a top-2 tournament when both families can map the shape, as here —
  // and installs the fastest. The model is right in this regime
  // (filter-grained genuinely wins), so measurement confirms and the
  // cache serves the same winner after.
  const ConvShape shape = ConvShape::from_output(8, 32, 32, 6, 6, 3, 3);
  SwConvolution sw;
  const auto report = sw.autotune_plan_measured(shape);
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->candidates.size(), 2u);
  // One candidate per family, every launch genuinely timed.
  EXPECT_NE(perf::plan_kind_family(report->candidates[0].plan.kind),
            perf::plan_kind_family(report->candidates[1].plan.kind));
  for (const auto& c : report->candidates) {
    EXPECT_GT(c.measured_seconds, 0.0);
    EXPECT_GT(c.measured_gflops, 0.0);
  }
  EXPECT_FALSE(report->reordered);
  EXPECT_EQ(report->winner_index, 0u);
  const auto& winner = report->candidates[report->winner_index];
  EXPECT_EQ(winner.plan.kind, perf::PlanKind::kFilterGrained);
  // The tournament winner measured no slower than every rival.
  for (const auto& c : report->candidates) {
    EXPECT_LE(winner.measured_seconds, c.measured_seconds);
  }
  EXPECT_EQ(sw.plan_for(shape).plan.to_string(), winner.plan.to_string());
  // Second call: the shape is already tuned, the protocol is a no-op.
  EXPECT_FALSE(sw.autotune_plan_measured(shape).has_value());
}

TEST(Multigrain, MeasuredTournamentShrinksWhenAFamilyCannotMap) {
  // Ni=3 rules out the channel-blocked incumbent plans, so the field
  // is the filter-grained family only — the tournament degrades to the
  // model's pick alone instead of inventing a rival, and a lone pick
  // has nothing to be timed against: no launch, measured_seconds 0.
  const ConvShape shape = ConvShape::from_output(3, 3, 5, 6, 6, 3, 3);
  SwConvolution sw;
  const auto lookup = sw.ranked_plans(shape);
  ASSERT_GE(lookup.entry->executable.size(), 2u);
  const auto report = sw.autotune_plan_measured(shape);
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->candidates.size(), 1u);
  for (const auto& c : report->candidates) {
    EXPECT_TRUE(perf::plan_kind_is_multigrain(c.plan.kind));
    EXPECT_EQ(c.measured_seconds, 0.0);
    EXPECT_EQ(c.measured_gflops, 0.0);
  }
  // Whatever won, the cache serves it.
  const auto& winner = report->candidates[report->winner_index];
  EXPECT_EQ(sw.plan_for(shape).plan.to_string(), winner.plan.to_string());
}

TEST(Multigrain, PlanFamiliesPartitionTheKinds) {
  using perf::PlanFamily;
  using perf::PlanKind;
  EXPECT_EQ(perf::plan_kind_family(PlanKind::kImageSizeAware),
            PlanFamily::kIncumbent);
  EXPECT_EQ(perf::plan_kind_family(PlanKind::kBatchSizeAware),
            PlanFamily::kIncumbent);
  EXPECT_EQ(perf::plan_kind_family(PlanKind::kFilterGrained),
            PlanFamily::kFilterGrained);
  EXPECT_STREQ(perf::plan_family_name(PlanFamily::kIncumbent), "incumbent");
  EXPECT_STREQ(perf::plan_family_name(PlanFamily::kFilterGrained), "fgrain");
}

}  // namespace
}  // namespace swdnn::conv
