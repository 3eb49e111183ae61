// Functional correctness of Algorithms 1 and 2 on the mesh simulator:
// every (shape, plan, mesh) combination must match the naive reference
// bit-for-bit (all arithmetic is f64 adds/multiplies in a fixed order
// per output, so exact equality is achievable and enforced).

#include <gtest/gtest.h>

#include <tuple>

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

struct Case {
  int mesh;
  ConvShape shape;
  perf::ConvPlan plan;
  std::string label;
};

Case make_case(int mesh, std::int64_t b, std::int64_t ni, std::int64_t no,
               std::int64_t ro, std::int64_t co, std::int64_t k,
               perf::PlanKind kind, std::int64_t bb, std::int64_t bco) {
  Case c;
  c.mesh = mesh;
  c.shape = ConvShape::from_output(b, ni, no, ro, co, k, k);
  c.plan.kind = kind;
  c.plan.block_b = bb;
  c.plan.block_co = bco;
  c.label = std::string(perf::plan_kind_name(kind)) + "_m" +
            std::to_string(mesh) + "_B" + std::to_string(b) + "_Ni" +
            std::to_string(ni) + "_No" + std::to_string(no) + "_k" +
            std::to_string(k) + "_bB" + std::to_string(bb) + "_bCo" +
            std::to_string(bco);
  return c;
}

void PrintTo(const Case& c, std::ostream* os) { *os << c.label; }

std::vector<Case> all_cases() {
  using PK = perf::PlanKind;
  std::vector<Case> cases;
  // 2x2 mesh: fast, covers tiling edge cases. The image plan's bB holds
  // whole batch quads per CPE (a multiple of 4 x mesh).
  cases.push_back(make_case(2, 8, 2, 2, 3, 4, 2, PK::kImageSizeAware, 8, 2));
  cases.push_back(make_case(2, 16, 4, 2, 4, 4, 3, PK::kImageSizeAware, 8, 4));
  cases.push_back(make_case(2, 8, 2, 4, 2, 6, 1, PK::kImageSizeAware, 8, 3));
  cases.push_back(
      make_case(2, 16, 4, 4, 5, 5, 3, PK::kImageSizeAware, 16, 5));
  cases.push_back(make_case(2, 4, 2, 2, 3, 4, 2, PK::kBatchSizeAware, 0, 2));
  cases.push_back(make_case(2, 6, 4, 2, 4, 4, 3, PK::kBatchSizeAware, 0, 4));
  cases.push_back(make_case(2, 8, 2, 4, 2, 6, 1, PK::kBatchSizeAware, 0, 3));
  cases.push_back(make_case(2, 4, 4, 4, 5, 5, 3, PK::kBatchSizeAware, 0, 1));
  // 4x4 mesh.
  cases.push_back(
      make_case(4, 16, 4, 4, 3, 4, 2, PK::kImageSizeAware, 16, 2));
  cases.push_back(
      make_case(4, 32, 8, 4, 2, 4, 3, PK::kImageSizeAware, 16, 4));
  cases.push_back(make_case(4, 8, 4, 8, 3, 4, 2, PK::kBatchSizeAware, 0, 2));
  cases.push_back(make_case(4, 12, 8, 4, 2, 3, 3, PK::kBatchSizeAware, 0, 3));
  // One full-size 8x8 mesh case per algorithm (small tiles).
  cases.push_back(
      make_case(8, 32, 8, 8, 2, 2, 2, PK::kImageSizeAware, 32, 2));
  cases.push_back(make_case(8, 8, 8, 8, 2, 2, 2, PK::kBatchSizeAware, 0, 2));
  return cases;
}

class LdmBlockedConv : public ::testing::TestWithParam<Case> {};

TEST_P(LdmBlockedConv, MatchesReference) {
  const Case& c = GetParam();
  const arch::Sw26010Spec spec = mesh_spec(c.mesh);
  util::Rng rng(42);

  tensor::Tensor input = make_input(c.shape);
  tensor::Tensor filter = make_filter(c.shape);
  rng.fill_uniform(input.data(), -1.0, 1.0);
  rng.fill_uniform(filter.data(), -1.0, 1.0);

  tensor::Tensor expected = make_output(c.shape);
  reference_forward(input, filter, expected, c.shape);

  tensor::Tensor actual = make_output(c.shape);
  sim::MeshExecutor exec(spec);
  sim::LaunchStats stats;
  if (c.plan.kind == perf::PlanKind::kImageSizeAware) {
    stats = run_image_size_aware(exec, input, filter, actual, c.shape,
                                 c.plan);
  } else {
    stats = run_batch_size_aware(exec, input, filter, actual, c.shape,
                                 c.plan);
  }
  EXPECT_EQ(expected.max_abs_diff(actual), 0.0) << c.shape.to_string();

  // Every FMA of the convolution ran on some CPE.
  EXPECT_EQ(stats.total_flops, static_cast<std::uint64_t>(c.shape.flops()));
  // Remote operands travelled over the buses.
  EXPECT_GT(stats.regcomm_messages, 0u);
  // DMA moved at least one copy of the input/filter/output data.
  EXPECT_GE(stats.dma.get_bytes,
            static_cast<std::uint64_t>(
                (c.shape.input_elements() + c.shape.filter_elements()) * 8));
  EXPECT_GE(stats.dma.put_bytes,
            static_cast<std::uint64_t>(c.shape.output_elements() * 8));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LdmBlockedConv, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return info.param.label;
    });

TEST(LdmBlockedConv, RowPartitionsComposeToFullImage) {
  // Computing [0, r) and [r, Ro) separately must equal the full run —
  // the property the 4-CG split relies on.
  const ConvShape shape = ConvShape::from_output(8, 4, 4, 6, 4, 3, 3);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kImageSizeAware;
  plan.block_b = 8;
  plan.block_co = 2;
  util::Rng rng(7);
  tensor::Tensor input = make_input(shape);
  tensor::Tensor filter = make_filter(shape);
  rng.fill_uniform(input.data(), -1.0, 1.0);
  rng.fill_uniform(filter.data(), -1.0, 1.0);

  tensor::Tensor expected = make_output(shape);
  reference_forward(input, filter, expected, shape);

  tensor::Tensor actual = make_output(shape);
  sim::MeshExecutor exec(mesh_spec(2));
  run_image_size_aware(exec, input, filter, actual, shape, plan, 0, 2);
  run_image_size_aware(exec, input, filter, actual, shape, plan, 2, 6);
  EXPECT_EQ(expected.max_abs_diff(actual), 0.0);
}

TEST(LdmBlockedConv, RejectsBatchTileOfPartialQuads) {
  // bB = 2 x mesh divides by the mesh but leaves each CPE half a
  // 256-bit batch quad of the Section V-C layout.
  const ConvShape shape = ConvShape::from_output(8, 4, 4, 4, 4, 3, 3);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kImageSizeAware;
  plan.block_b = 4;
  plan.block_co = 2;
  EXPECT_THROW(check_mesh_compatibility(shape, plan, 2), MeshMappingError);
}

TEST(LdmBlockedConv, RejectsIndivisibleChannels) {
  const ConvShape shape = ConvShape::from_output(4, 3, 4, 4, 4, 3, 3);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kImageSizeAware;
  plan.block_b = 2;
  plan.block_co = 2;
  EXPECT_THROW(check_mesh_compatibility(shape, plan, 2),
               std::invalid_argument);
}

TEST(LdmBlockedConv, RejectsIndivisibleBatchTile) {
  const ConvShape shape = ConvShape::from_output(12, 4, 4, 4, 4, 3, 3);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kImageSizeAware;
  plan.block_b = 8;  // 12 % 8 != 0
  plan.block_co = 2;
  EXPECT_THROW(check_mesh_compatibility(shape, plan, 2),
               std::invalid_argument);
}

TEST(LdmBlockedConv, RejectsIndivisibleOutputColumns) {
  const ConvShape shape = ConvShape::from_output(4, 4, 4, 4, 5, 3, 3);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kBatchSizeAware;
  plan.block_co = 2;  // 5 % 2 != 0
  EXPECT_THROW(check_mesh_compatibility(shape, plan, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace swdnn::conv
