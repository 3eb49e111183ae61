// The public SwConvolution facade: plan selection, functional forward on
// the mesh, multi-CG partitioning, and the model estimate.

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

conv::ConvShape paper_shape(std::int64_t ni, std::int64_t no,
                            std::int64_t k = 3) {
  return conv::ConvShape::from_output(128, ni, no, 64, 64, k, k);
}

TEST(SwConv, RejectsNonPositiveMesh) {
  for (const int dim : {0, -2}) {
    EXPECT_THROW(SwConvolution{mesh_spec(dim)}, std::invalid_argument)
        << "mesh " << dim;
  }
  arch::Sw26010Spec ragged = mesh_spec(4);
  ragged.mesh_cols = 0;
  EXPECT_THROW(SwConvolution{ragged}, std::invalid_argument);
}

TEST(SwConv, AutoPlanForwardMatchesReference) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  SwConvolution sw(spec);
  const ConvShape shape = ConvShape::from_output(8, 4, 4, 4, 4, 3, 3);
  util::Rng rng(41);
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(shape), actual = make_output(shape);
  reference_forward(in, w, expected, shape);
  const ForwardResult result = sw.forward(in, w, actual, shape);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-12);
  EXPECT_GT(result.stats.total_flops, 0u);
  EXPECT_GT(result.choice.estimate.gflops_per_cg, 0.0);
}

TEST(SwConv, ExplicitPlanForwardMatchesReference) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  SwConvolution sw(spec);
  const ConvShape shape = ConvShape::from_output(4, 4, 4, 5, 4, 2, 2);
  util::Rng rng(42);
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(shape), actual = make_output(shape);
  reference_forward(in, w, expected, shape);

  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kBatchSizeAware;
  plan.block_co = 2;
  sw.forward(in, w, actual, shape, plan);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-12);
}

TEST(SwConv, MultiCgForwardMatchesReferenceAndScales) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  SwConvolution sw(spec);
  // Large enough that per-CG work dwarfs the fixed launch overhead for
  // every mapping family (the multigrain kernels finish tiny shapes so
  // fast the 2us overhead would dominate the scaling ratio).
  const ConvShape shape = ConvShape::from_output(8, 8, 8, 16, 4, 3, 3);
  util::Rng rng(43);
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(shape), actual = make_output(shape);
  reference_forward(in, w, expected, shape);

  const sim::MultiCgStats stats =
      sw.forward_multi_cg(in, w, actual, shape, 4);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-12);
  EXPECT_EQ(stats.per_cg.size(), 4u);
  // Padded-tile mapping families (the multigrain kernels) execute —
  // and honestly charge — the zero-padding multiplies their ceil-div
  // tiles add, so accounted flops can exceed the nominal count but
  // must never undershoot it.
  EXPECT_GE(stats.total_flops(), static_cast<std::uint64_t>(shape.flops()));
  // Equal row partitions -> near-linear scaling.
  EXPECT_GT(stats.scaling_speedup(), 3.0);
}

// A batch-plan problem on a 2x2 mesh whose 8 output rows split evenly
// over 4 core groups, so every core group runs the same amount of work.
struct MultiCgProblem {
  ConvShape shape = ConvShape::from_output(8, 16, 16, 8, 8, 3, 3);
  perf::ConvPlan plan;
  tensor::Tensor in = make_input(shape), w = make_filter(shape);
  MultiCgProblem() {
    plan.kind = perf::PlanKind::kBatchSizeAware;
    plan.block_co = 2;
    util::Rng rng(45);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
  }
};

TEST(SwConv, MultiCgRunsEachPartitionAsItsOwnLaunch) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  SwConvolution sw(spec);
  const MultiCgProblem p;
  tensor::Tensor out = make_output(p.shape);
  const sim::MultiCgStats stats =
      sw.forward_multi_cg(p.in, p.w, out, p.shape, 4, p.plan);
  ASSERT_EQ(stats.per_cg.size(), 4u);

  // Core group g owns output rows [2g, 2g+2): its stats are those of a
  // standalone launch over those rows, and the partitions compose the
  // whole output.
  sim::MeshExecutor exec(spec);
  tensor::Tensor alone = make_output(p.shape);
  for (std::int64_t g = 0; g < 4; ++g) {
    const sim::LaunchStats s = run_batch_size_aware(
        exec, p.in, p.w, alone, p.shape, p.plan, 2 * g, 2 * g + 2);
    const sim::LaunchStats& cg = stats.per_cg[static_cast<std::size_t>(g)];
    EXPECT_EQ(cg.total_flops, s.total_flops) << "cg " << g;
    EXPECT_EQ(cg.max_compute_cycles, s.max_compute_cycles) << "cg " << g;
    EXPECT_EQ(cg.dma.requests, s.dma.requests) << "cg " << g;
  }
  EXPECT_EQ(stats.total_flops(), static_cast<std::uint64_t>(p.shape.flops()));
  EXPECT_EQ(alone.max_abs_diff(out), 0.0);
}

TEST(SwConv, MultiCgScalesNearLinearlyForBalancedWork) {
  // Equal partitions: the speedup approaches the number of CGs, less
  // only the fixed launch overhead (the paper's "near linear scaling
  // among the four CGs").
  SwConvolution sw(mesh_spec(2));
  const MultiCgProblem p;
  tensor::Tensor out = make_output(p.shape);
  const sim::MultiCgStats stats =
      sw.forward_multi_cg(p.in, p.w, out, p.shape, 4, p.plan);
  EXPECT_GT(stats.scaling_speedup(), 3.9);
  EXPECT_LE(stats.scaling_speedup(), 4.0 + 1e-9);
}

TEST(SwConv, MultiCgRejectsBadCgCount) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  SwConvolution sw(spec);
  const MultiCgProblem p;
  tensor::Tensor out = make_output(p.shape);
  for (const int cgs : {0, spec.num_core_groups + 1}) {
    EXPECT_THROW(sw.forward_multi_cg(p.in, p.w, out, p.shape, cgs, p.plan),
                 std::invalid_argument)
        << cgs << " core groups";
  }
}

TEST(SwConv, PlanForRequiresExecutabilityWhenAsked) {
  const arch::Sw26010Spec spec = mesh_spec(8);
  SwConvolution sw(spec);
  const auto choice = sw.plan_for(paper_shape(128, 128), true);
  EXPECT_NO_THROW(
      check_mesh_compatibility(paper_shape(128, 128), choice.plan, 8));
}

TEST(SwConv, EstimateUsesBestPlan) {
  SwConvolution sw;
  const auto est = sw.estimate(paper_shape(256, 256));
  EXPECT_GT(est.gflops_chip, 1000.0);   // above 1 Tflops
  EXPECT_LT(est.gflops_chip, 2969.6);   // below peak
}

}  // namespace
}  // namespace swdnn::conv
