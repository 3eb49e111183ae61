// conv::predict_launch and its parts against the simulator: for every
// executable plan of a grid of shapes (ragged tiles, remainder passes,
// partial row ranges, 2x2, 4x4 and 8x8 meshes) and of each shape's
// backward-data twin, for mesh_gemm (accumulating and chunked) and for
// mesh_backward_filter, the predicted LaunchStats equal the launch's in
// every field, the modeled times to the bit.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/conv/backward.h"
#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/multigrain.h"
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

void expect_predicted(const sim::LaunchStats& launched,
                      const sim::LaunchStats& predicted,
                      const std::string& what) {
  EXPECT_FALSE(launched.failed) << what;
  EXPECT_EQ(launched.max_compute_cycles, predicted.max_compute_cycles)
      << what;
  EXPECT_EQ(launched.total_flops, predicted.total_flops) << what;
  EXPECT_EQ(launched.regcomm_messages, predicted.regcomm_messages) << what;
  EXPECT_EQ(launched.dma.get_bytes, predicted.dma.get_bytes) << what;
  EXPECT_EQ(launched.dma.put_bytes, predicted.dma.put_bytes) << what;
  EXPECT_EQ(launched.dma.requests, predicted.dma.requests) << what;
  EXPECT_EQ(launched.dma.misaligned_requests,
            predicted.dma.misaligned_requests)
      << what;
  EXPECT_EQ(launched.dma_seconds, predicted.dma_seconds) << what;
  EXPECT_EQ(launched.compute_seconds, predicted.compute_seconds) << what;
  EXPECT_TRUE(launched == predicted) << what << ": a fault field differs";
}

sim::LaunchStats launch(sim::MeshExecutor& exec, const perf::ConvPlan& plan,
                        const tensor::Tensor& in, const tensor::Tensor& w,
                        tensor::Tensor& out, const ConvShape& shape,
                        std::int64_t ro_begin, std::int64_t ro_end) {
  switch (plan.kind) {
    case perf::PlanKind::kImageSizeAware:
      return run_image_size_aware(exec, in, w, out, shape, plan, ro_begin,
                                  ro_end);
    case perf::PlanKind::kBatchSizeAware:
      return run_batch_size_aware(exec, in, w, out, shape, plan, ro_begin,
                                  ro_end);
    case perf::PlanKind::kFilterGrained:
      return run_filter_grained(exec, in, w, out, shape, plan, ro_begin,
                                ro_end);
  }
  return {};
}

struct GridCase {
  int mesh;
  ConvShape shape;
  std::string label;
};

GridCase grid_case(int mesh, std::int64_t b, std::int64_t ni, std::int64_t no,
                   std::int64_t ro, std::int64_t co, std::int64_t k) {
  return {mesh, ConvShape::from_output(b, ni, no, ro, co, k, k),
          "mesh" + std::to_string(mesh) + "_B" + std::to_string(b) + "Ni" +
              std::to_string(ni) + "No" + std::to_string(no) + "o" +
              std::to_string(ro) + "x" + std::to_string(co) + "k" +
              std::to_string(k)};
}

void PrintTo(const GridCase& tc, std::ostream* os) { *os << tc.label; }

class LaunchPrediction : public ::testing::TestWithParam<GridCase> {};

TEST_P(LaunchPrediction, EveryExecutablePlanMatchesItsLaunch) {
  const GridCase& tc = GetParam();
  const arch::Sw26010Spec spec = mesh_spec(tc.mesh);
  SwConvolution sw(spec);
  sim::MeshExecutor exec(spec);
  util::Rng rng(71);
  for (const ConvShape& shape : {tc.shape, backward_data_shape(tc.shape)}) {
    tensor::Tensor in = make_input(shape);
    tensor::Tensor w = make_filter(shape);
    tensor::Tensor out = make_output(shape);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    const perf::PlanCache::Entry entry = sw.ranked_plans(shape).entry;
    ASSERT_TRUE(entry->has_executable()) << shape.to_string();
    // The whole image, then a partial row range.
    const std::vector<std::pair<std::int64_t, std::int64_t>> ranges = {
        {0, shape.ro()}, {1, shape.ro()}};
    for (const std::size_t idx : entry->executable) {
      const perf::ConvPlan& plan = entry->ranked[idx].plan;
      for (const auto& [begin, end] : ranges) {
        expect_predicted(
            launch(exec, plan, in, w, out, shape, begin, end),
            predict_launch(shape, plan, spec, begin, end),
            shape.to_string() + " " + plan.to_string() + " rows [" +
                std::to_string(begin) + ", " + std::to_string(end) + ")");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LaunchPrediction,
    ::testing::Values(
        // Every plan kind, and a backward twin whose Co = 6 leaves only
        // the column blocks that divide it.
        grid_case(2, 32, 4, 6, 3, 4, 3), grid_case(4, 32, 8, 4, 2, 4, 3),
        grid_case(8, 32, 8, 16, 2, 4, 3),
        // Ragged channels and batch: filter-grained only, with ragged
        // tiles and a remainder pixel pass.
        grid_case(2, 3, 3, 5, 4, 3, 2), grid_case(4, 5, 6, 7, 3, 3, 3),
        grid_case(8, 4, 3, 10, 3, 3, 1)),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return info.param.label;
    });

// Beside the fixed grid, a seeded sweep: random shapes (half of them
// divisible, so the LDM-blocked plans run too), every executable plan,
// meshes of 1, 2, 4 and 8 and random row ranges. It attaches no fault
// plan: the prediction describes a fault-free launch and stops where
// faults start, since retries, stalls and forced misalignment add
// counts that only a launch's draws decide.
TEST(LaunchPrediction, SeededSweepMatchesItsLaunches) {
  util::Rng rng(74);
  std::set<int> meshes;
  std::set<perf::PlanKind> kinds;
  for (int i = 0; i < 40; ++i) {
    const int mesh = 1 << rng.uniform_int(0, 3);
    const bool divisible = rng.uniform_int(0, 1) == 1;
    const std::int64_t batch = divisible ? 4 * mesh * rng.uniform_int(1, 2)
                                         : rng.uniform_int(1, 9);
    const std::int64_t ni =
        divisible ? mesh * rng.uniform_int(1, 2) : rng.uniform_int(1, 9);
    const std::int64_t no =
        divisible ? mesh * rng.uniform_int(1, 3) : rng.uniform_int(1, 11);
    const std::int64_t ro = rng.uniform_int(1, 4);
    const std::int64_t co = rng.uniform_int(1, 4);
    const std::int64_t k = rng.uniform_int(1, 3);
    const ConvShape shape = ConvShape::from_output(batch, ni, no, ro, co, k, k);
    const std::int64_t begin = rng.uniform_int(0, ro - 1);
    const std::int64_t end = rng.uniform_int(begin + 1, ro);
    const arch::Sw26010Spec spec = mesh_spec(mesh);
    SwConvolution sw(spec);
    sim::MeshExecutor exec(spec);
    tensor::Tensor in = make_input(shape);
    tensor::Tensor w = make_filter(shape);
    tensor::Tensor out = make_output(shape);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
    const perf::PlanCache::Entry entry = sw.ranked_plans(shape).entry;
    for (const std::size_t idx : entry->executable) {
      const perf::ConvPlan& plan = entry->ranked[idx].plan;
      expect_predicted(
          launch(exec, plan, in, w, out, shape, begin, end),
          predict_launch(shape, plan, spec, begin, end),
          "case " + std::to_string(i) + " mesh" + std::to_string(mesh) +
              " " + shape.to_string() + " " + plan.to_string() + " rows [" +
              std::to_string(begin) + ", " + std::to_string(end) + ")");
      meshes.insert(mesh);
      kinds.insert(plan.kind);
    }
  }
  // The draws reach every mesh and every plan kind.
  EXPECT_EQ(meshes, (std::set<int>{1, 2, 4, 8}));
  EXPECT_EQ(kinds.size(), 3u);
}

TEST(LaunchPrediction, MeshGemmMatchesItsLaunch) {
  struct Case {
    int mesh;
    std::int64_t m, k, n, k_chunk;
    bool accumulate;
  };
  const Case cases[] = {
      {2, 4, 4, 4, 0, false},  {2, 5, 7, 3, 3, false},
      {2, 5, 7, 3, 3, true},   {2, 5, 23, 3, 8, true},
      {4, 5, 9, 6, 0, true},   {4, 7, 3, 13, 0, false},
      {4, 6, 32, 6, 5, false}, {8, 3, 5, 2, 0, true},
      {8, 9, 30, 5, 10, false}, {8, 20, 300, 17, 0, true},
  };
  util::Rng rng(72);
  for (const Case& c : cases) {
    const arch::Sw26010Spec spec = mesh_spec(c.mesh);
    sim::MeshExecutor exec(spec);
    std::vector<double> a(static_cast<std::size_t>(c.k * c.m));
    std::vector<double> b(static_cast<std::size_t>(c.k * c.n));
    std::vector<double> out(static_cast<std::size_t>(c.m * c.n));
    rng.fill_uniform(a, -1, 1);
    rng.fill_uniform(b, -1, 1);
    const MeshGemmOptions options{.accumulate = c.accumulate,
                                  .k_chunk = c.k_chunk};
    expect_predicted(
        mesh_gemm(exec, a, b, out, c.m, c.k, c.n, options),
        predict_mesh_gemm(spec, c.m, c.k, c.n, options),
        "mesh" + std::to_string(c.mesh) + " m" + std::to_string(c.m) + "k" +
            std::to_string(c.k) + "n" + std::to_string(c.n) + " chunk " +
            std::to_string(c.k_chunk) + (c.accumulate ? " accumulate" : ""));
  }
}

TEST(LaunchPrediction, BackwardFilterMatchesItsLaunch) {
  const std::pair<int, ConvShape> cases[] = {
      {2, ConvShape::from_output(3, 2, 5, 2, 3, 1, 1)},
      {4, ConvShape::from_output(5, 3, 7, 2, 3, 3, 3)},
      {8, ConvShape::from_output(32, 8, 16, 2, 4, 3, 3)},
  };
  util::Rng rng(73);
  for (const auto& [mesh, shape] : cases) {
    const arch::Sw26010Spec spec = mesh_spec(mesh);
    sim::MeshExecutor exec(spec);
    tensor::Tensor in = make_input(shape);
    tensor::Tensor dout = make_output(shape);
    tensor::Tensor dw = make_filter(shape);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(dout.data(), -1, 1);
    expect_predicted(mesh_backward_filter(exec, in, dout, dw, shape),
                     predict_backward_filter(shape, spec),
                     "mesh" + std::to_string(mesh) + " " + shape.to_string());
  }
}

TEST(LaunchPrediction, RefusesWhatTheLaunchRefuses) {
  const arch::Sw26010Spec spec = mesh_spec(8);
  // Ni = 3 does not divide the mesh: no LDM-blocked route.
  const ConvShape ragged = ConvShape::from_output(32, 3, 8, 2, 2, 3, 3);
  perf::ConvPlan batch;
  batch.kind = perf::PlanKind::kBatchSizeAware;
  batch.block_co = 1;
  EXPECT_THROW(predict_launch(ragged, batch, spec), MeshMappingError);
  EXPECT_THROW(predict_mesh_gemm(spec, 0, 4, 4), std::invalid_argument);
}

}  // namespace
}  // namespace swdnn::conv
