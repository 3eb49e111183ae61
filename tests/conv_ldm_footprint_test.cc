// The per-CPE LDM footprint of the mesh kernels, pinned to the bytes
// each CPE allocates. A receiver reads a broadcast tile where the bus
// left it, so its receive buffer is allocated but, on the fast path,
// never written: nothing but these values would notice a change that
// dropped one and undercounted the LDM a plan needs. Each footprint
// must also stay within what perf::ldm_bytes_required charges the plan,
// and a bare mesh_gemm's within the LDM budget it sizes its chunk by.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/conv/ldm_blocked.h"
#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/multigrain.h"
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

// Every CPE of the last launch allocated `bytes`.
void expect_every_cpe_used(const sim::MeshExecutor& exec, std::size_t bytes) {
  const sim::CpeMesh& mesh = exec.mesh();
  for (int r = 0; r < mesh.rows(); ++r) {
    for (int c = 0; c < mesh.cols(); ++c) {
      EXPECT_EQ(mesh.cell(r, c).ldm.bytes_used(), bytes)
          << "CPE(" << r << "," << c << ")";
    }
  }
}

struct GemmCase {
  int mesh;
  std::int64_t m, k, n, k_chunk;
  std::size_t bytes;  ///< per-CPE footprint
};

void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << "mesh" << c.mesh << "_m" << c.m << "k" << c.k << "n" << c.n
      << "chunk" << c.k_chunk;
}

class MeshGemmFootprint : public ::testing::TestWithParam<GemmCase> {};

TEST_P(MeshGemmFootprint, EveryCpeHoldsTheGemmTileSet) {
  const GemmCase& c = GetParam();
  const arch::Sw26010Spec spec = mesh_spec(c.mesh);
  sim::MeshExecutor exec(spec);
  util::Rng rng(81);
  std::vector<double> a(static_cast<std::size_t>(c.k * c.m));
  std::vector<double> b(static_cast<std::size_t>(c.k * c.n));
  std::vector<double> out(static_cast<std::size_t>(c.m * c.n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  const sim::LaunchStats stats = mesh_gemm(exec, a, b, out, c.m, c.k, c.n,
                                           {.k_chunk = c.k_chunk});
  ASSERT_FALSE(stats.failed);
  expect_every_cpe_used(exec, c.bytes);
  EXPECT_LE(c.bytes, spec.ldm_bytes - spec.ldm_reserved_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MeshGemmFootprint,
    ::testing::Values(GemmCase{1, 5, 7, 3, 0, 1040},
                      GemmCase{2, 5, 23, 3, 8, 384},
                      GemmCase{4, 7, 30, 13, 0, 864},
                      GemmCase{8, 20, 300, 17, 0, 3744},
                      // The default chunk fills the LDM budget.
                      GemmCase{8, 64, 4096, 64, 0, 40768}),
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      return ::testing::PrintToString(info.param);
    });

struct PlanCase {
  int mesh;
  ConvShape shape;
  perf::PlanKind kind;
  std::int64_t block_co, block_b;
  std::size_t bytes;  ///< per-CPE footprint of the (last) launch
  std::string label;
};

PlanCase plan_case(int mesh, std::int64_t b, std::int64_t ni, std::int64_t no,
                   std::int64_t ro, std::int64_t co, std::int64_t k,
                   perf::PlanKind kind, std::int64_t block_co,
                   std::int64_t block_b, std::size_t bytes) {
  return {mesh,
          ConvShape::from_output(b, ni, no, ro, co, k, k),
          kind,
          block_co,
          block_b,
          bytes,
          std::string(perf::plan_kind_name(kind)) + "_mesh" +
              std::to_string(mesh) + "_B" + std::to_string(b) + "Ni" +
              std::to_string(ni) + "No" + std::to_string(no) + "o" +
              std::to_string(ro) + "x" + std::to_string(co) + "k" +
              std::to_string(k) + "bco" + std::to_string(block_co)};
}

void PrintTo(const PlanCase& c, std::ostream* os) { *os << c.label; }

class PlanFootprint : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanFootprint, EveryCpeHoldsThePlansTileSet) {
  const PlanCase& c = GetParam();
  const arch::Sw26010Spec spec = mesh_spec(c.mesh);
  sim::MeshExecutor exec(spec);
  perf::ConvPlan plan;
  plan.kind = c.kind;
  plan.block_co = c.block_co;
  plan.block_b = c.block_b;
  tensor::Tensor in = make_input(c.shape);
  tensor::Tensor w = make_filter(c.shape);
  tensor::Tensor out = make_output(c.shape);
  util::Rng rng(82);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  sim::LaunchStats stats;
  switch (c.kind) {
    case perf::PlanKind::kImageSizeAware:
      stats = run_image_size_aware(exec, in, w, out, c.shape, plan);
      break;
    case perf::PlanKind::kBatchSizeAware:
      stats = run_batch_size_aware(exec, in, w, out, c.shape, plan);
      break;
    case perf::PlanKind::kFilterGrained:
      stats = run_filter_grained(exec, in, w, out, c.shape, plan);
      break;
  }
  ASSERT_FALSE(stats.failed);
  expect_every_cpe_used(exec, c.bytes);
  EXPECT_LE(static_cast<std::int64_t>(c.bytes),
            perf::ldm_bytes_required(c.shape, plan, spec));
}

using perf::PlanKind;

INSTANTIATE_TEST_SUITE_P(
    Cases, PlanFootprint,
    ::testing::Values(
        plan_case(1, 4, 3, 5, 2, 4, 3, PlanKind::kImageSizeAware, 2, 4, 944),
        plan_case(1, 3, 3, 5, 2, 4, 3, PlanKind::kBatchSizeAware, 2, 0, 624),
        plan_case(1, 3, 3, 5, 2, 4, 3, PlanKind::kFilterGrained, 1, 0, 13680),
        plan_case(2, 8, 4, 6, 3, 4, 3, PlanKind::kImageSizeAware, 2, 8, 544),
        plan_case(2, 8, 4, 6, 3, 4, 3, PlanKind::kBatchSizeAware, 4, 0, 608),
        plan_case(2, 3, 3, 5, 4, 3, 2, PlanKind::kFilterGrained, 1, 0, 2592),
        plan_case(4, 32, 8, 4, 2, 4, 3, PlanKind::kImageSizeAware, 4, 16, 672),
        plan_case(4, 32, 8, 4, 2, 4, 3, PlanKind::kBatchSizeAware, 2, 0, 416),
        plan_case(4, 5, 6, 7, 3, 3, 3, PlanKind::kFilterGrained, 1, 0, 3424),
        plan_case(8, 32, 8, 16, 2, 4, 3, PlanKind::kImageSizeAware, 4, 32,
                  544),
        plan_case(8, 32, 8, 16, 2, 4, 3, PlanKind::kBatchSizeAware, 4, 0, 352),
        plan_case(8, 32, 64, 64, 4, 4, 3, PlanKind::kBatchSizeAware, 4, 0,
                  2560),
        plan_case(8, 32, 16, 24, 4, 4, 3, PlanKind::kFilterGrained, 1, 0,
                  21344)),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace swdnn::conv
