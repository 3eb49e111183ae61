// Algorithm 1 on the Section V-C layout. The image plan's kernel stages
// the rows it touches into (4, C, R, N, B/4) on the host and DMAs one
// contiguous bCo*4-double run per (batch quad, channel) into its mesh
// GEMM tile. These tests pin (a) bitwise equality with the reference,
// (b) the closed-form DMA pattern the layout buys, and (c) that the
// counts of a one-row slice scale to the whole launch — the reason
// Table III's simulated `meas` may run on a slice of the paper's shape.

#include <gtest/gtest.h>

#include "src/conv/ldm_blocked.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

struct VecCase {
  int mesh;
  ConvShape shape;
  perf::ConvPlan plan;
  std::string label;
};

VecCase vc(int mesh, std::int64_t b, std::int64_t ni, std::int64_t no,
           std::int64_t ro, std::int64_t co, std::int64_t k,
           std::int64_t bb, std::int64_t bco) {
  VecCase c;
  c.mesh = mesh;
  c.shape = ConvShape::from_output(b, ni, no, ro, co, k, k);
  c.plan.kind = perf::PlanKind::kImageSizeAware;
  c.plan.block_b = bb;
  c.plan.block_co = bco;
  c.label = "mesh" + std::to_string(mesh) + "_B" + std::to_string(b) +
            "Ni" + std::to_string(ni) + "No" + std::to_string(no) + "k" +
            std::to_string(k) + "bB" + std::to_string(bb) + "bCo" +
            std::to_string(bco);
  return c;
}

void PrintTo(const VecCase& c, std::ostream* os) { *os << c.label; }

struct Problem {
  tensor::Tensor input, filter;
};

Problem random_problem(const ConvShape& shape, std::uint64_t seed) {
  Problem p{make_input(shape), make_filter(shape)};
  util::Rng rng(seed);
  rng.fill_uniform(p.input.data(), -1, 1);
  rng.fill_uniform(p.filter.data(), -1, 1);
  return p;
}

class VectorizedConv : public ::testing::TestWithParam<VecCase> {};

TEST_P(VectorizedConv, MatchesReferenceThroughLayoutRoundTrip) {
  const VecCase& tc = GetParam();
  const Problem p = random_problem(tc.shape, 71);
  tensor::Tensor expected = make_output(tc.shape);
  reference_forward(p.input, p.filter, expected, tc.shape);

  tensor::Tensor actual = make_output(tc.shape);
  sim::MeshExecutor exec(mesh_spec(tc.mesh));
  run_image_size_aware(exec, p.input, p.filter, actual, tc.shape, tc.plan);
  EXPECT_EQ(expected.max_abs_diff(actual), 0.0) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, VectorizedConv,
    ::testing::Values(vc(2, 8, 2, 2, 3, 4, 2, 8, 2),
                      vc(2, 16, 4, 2, 4, 4, 3, 8, 4),
                      vc(2, 8, 4, 4, 2, 6, 1, 8, 3),
                      vc(4, 16, 4, 4, 3, 4, 2, 16, 2)),
    [](const ::testing::TestParamInfo<VecCase>& info) {
      return info.param.label;
    });

TEST(VectorizedConv, DmaPatternMatchesClosedForm) {
  // Per CPE and output tile (bB images, one row, bCo columns): one
  // strided filter get per tap, q*Ni/p input runs per tap and q*No/p
  // output runs, with q = bB/(4p) batch quads per CPE — in all
  // p^2*(B/bB)*Ro*(Co/bCo)*(Kr*Kc*(1 + q*Ni/p) + q*No/p) requests. The
  // bCo*32 B runs are 128 B multiples here, so only the filter's
  // No/p*8 B blocks are misaligned. The second case is conv_sweep's
  // image-plan forward.
  struct Expected {
    VecCase tc;
    std::uint64_t requests, misaligned;
  };
  for (const Expected& e :
       {Expected{vc(2, 16, 4, 4, 3, 4, 3, 8, 4), 24 * (9 * 3 + 2), 24 * 9},
        Expected{vc(8, 32, 64, 64, 4, 4, 3, 32, 4), 22784, 2304}}) {
    SCOPED_TRACE(e.tc.label);
    const ConvShape& s = e.tc.shape;
    const Problem prob = random_problem(s, 72);
    tensor::Tensor out = make_output(s);
    sim::MeshExecutor exec(mesh_spec(e.tc.mesh));
    const sim::LaunchStats stats =
        run_image_size_aware(exec, prob.input, prob.filter, out, s, e.tc.plan);
    EXPECT_EQ(stats.dma.requests, e.requests);
    EXPECT_EQ(stats.dma.misaligned_requests, e.misaligned);
    EXPECT_EQ(stats.dma.put_bytes,
              static_cast<std::uint64_t>(s.output_elements() * 8));
  }
}

TEST(VectorizedConv, SliceCountsScaleToTheWholeLaunch) {
  // Every tile does the same work, so a one-row, Co'-column slice (same
  // batch, channels, filter and plan) counts (Ro*Co)/Co' times less of
  // everything, and its throughput is the whole launch's.
  perf::ConvPlan img;
  img.kind = perf::PlanKind::kImageSizeAware;
  img.block_b = 8;
  img.block_co = 2;
  perf::ConvPlan batch;
  batch.kind = perf::PlanKind::kBatchSizeAware;
  batch.block_co = 2;
  for (const perf::ConvPlan& plan : {img, batch}) {
    SCOPED_TRACE(plan.to_string());
    const ConvShape whole = ConvShape::from_output(16, 4, 4, 3, 4, 3, 3);
    const ConvShape slice = ConvShape::from_output(16, 4, 4, 1, 2, 3, 3);
    const std::uint64_t factor = 6;  // (3 * 4) / (1 * 2)
    sim::MeshExecutor exec(mesh_spec(2));
    auto launch = [&](const ConvShape& s) {
      const Problem prob = random_problem(s, 73);
      tensor::Tensor out = make_output(s);
      return plan.kind == perf::PlanKind::kImageSizeAware
                 ? run_image_size_aware(exec, prob.input, prob.filter, out, s,
                                        plan)
                 : run_batch_size_aware(exec, prob.input, prob.filter, out, s,
                                        plan);
    };
    const sim::LaunchStats w = launch(whole);
    const sim::LaunchStats s = launch(slice);
    EXPECT_EQ(w.total_flops, factor * s.total_flops);
    EXPECT_EQ(w.max_compute_cycles, factor * s.max_compute_cycles);
    EXPECT_EQ(w.regcomm_messages, factor * s.regcomm_messages);
    EXPECT_EQ(w.dma.requests, factor * s.dma.requests);
    EXPECT_EQ(w.dma.misaligned_requests, factor * s.dma.misaligned_requests);
    EXPECT_EQ(w.dma.get_bytes, factor * s.dma.get_bytes);
    EXPECT_EQ(w.dma.put_bytes, factor * s.dma.put_bytes);
    const double k = static_cast<double>(factor);
    EXPECT_NEAR(w.compute_seconds, k * s.compute_seconds,
                1e-12 * w.compute_seconds);
    EXPECT_NEAR(w.dma_seconds, k * s.dma_seconds, 1e-12 * w.dma_seconds);
    EXPECT_NEAR(w.modeled_gflops(), s.modeled_gflops(),
                1e-12 * w.modeled_gflops());
  }
}

TEST(VectorizedConv, RequiresWholeQuadsPerCpe) {
  const ConvShape shape = ConvShape::from_output(8, 2, 2, 3, 4, 2, 2);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kImageSizeAware;
  plan.block_b = 4;  // 4 / (4*2 mesh) -> not whole quads per CPE
  plan.block_co = 2;
  sim::MeshExecutor exec(mesh_spec(2));
  tensor::Tensor input = make_input(shape);
  tensor::Tensor filter = make_filter(shape);
  tensor::Tensor output = make_output(shape);
  EXPECT_THROW(
      run_image_size_aware(exec, input, filter, output, shape, plan),
      MeshMappingError);
}

}  // namespace
}  // namespace swdnn::conv
