#include <gtest/gtest.h>

#include "src/perf/plan.h"

namespace swdnn::perf {
namespace {

conv::ConvShape paper_shape(std::int64_t ni, std::int64_t no,
                            std::int64_t k = 3) {
  return conv::ConvShape::from_output(128, ni, no, 64, 64, k, k);
}

TEST(Plan, KindNames) {
  EXPECT_STREQ(plan_kind_name(PlanKind::kImageSizeAware), "img");
  EXPECT_STREQ(plan_kind_name(PlanKind::kBatchSizeAware), "batch");
}

TEST(Plan, ToStringIncludesBlocking) {
  ConvPlan p;
  p.kind = PlanKind::kImageSizeAware;
  p.block_b = 32;
  p.block_co = 16;
  EXPECT_EQ(p.to_string(), "img(bB=32,bCo=16)");
  p.use_register_comm = false;
  EXPECT_NE(p.to_string().find("noregcomm"), std::string::npos);
}

TEST(Plan, Table3Row1FootprintFitsLdm) {
  // img, bB=32, bCo=16, Ni=No=128: the configuration the paper ran.
  ConvPlan p;
  p.kind = PlanKind::kImageSizeAware;
  p.block_b = 32;
  p.block_co = 16;
  const auto bytes =
      ldm_bytes_required(paper_shape(128, 128), p, arch::default_spec());
  EXPECT_GT(bytes, 0);
  EXPECT_LE(bytes, 64 * 1024);
  EXPECT_TRUE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
}

TEST(Plan, OversizedImageBlockingOverflowsLdm) {
  ConvPlan p;
  p.kind = PlanKind::kImageSizeAware;
  p.block_b = 128;
  p.block_co = 64;
  EXPECT_GT(ldm_bytes_required(paper_shape(384, 384), p,
                               arch::default_spec()),
            64 * 1024);
  EXPECT_FALSE(plan_feasible(paper_shape(384, 384), p, arch::default_spec()));
}

TEST(Plan, DoubleBufferingDoublesStreamedTiles) {
  ConvPlan with, without;
  with.kind = without.kind = PlanKind::kImageSizeAware;
  with.block_b = without.block_b = 32;
  with.block_co = without.block_co = 16;
  without.double_buffer = false;
  const auto shape = paper_shape(128, 128);
  EXPECT_GT(ldm_bytes_required(shape, with, arch::default_spec()),
            ldm_bytes_required(shape, without, arch::default_spec()));
}

TEST(Plan, FilterPromotionEnlargesTheHoistedTile) {
  // Hoisting the filter DMA above the pixel loop (batch plan) keeps Kc
  // filter slices resident instead of one.
  ConvPlan base, promoted;
  base.kind = promoted.kind = PlanKind::kBatchSizeAware;
  base.block_co = promoted.block_co = 8;
  promoted.promote_filter_dma = true;
  const auto shape = paper_shape(128, 128);
  EXPECT_GT(ldm_bytes_required(shape, promoted, arch::default_spec()),
            ldm_bytes_required(shape, base, arch::default_spec()));
}

TEST(Plan, InputTileAlwaysCarriesTheColumnHalo) {
  // Algorithm 1's sliding (CoStart+cKc) window touches bCo+Kc-1 input
  // columns; a bigger filter needs a bigger input tile.
  ConvPlan p;
  p.kind = PlanKind::kImageSizeAware;
  p.block_b = 32;
  p.block_co = 16;
  EXPECT_GT(ldm_bytes_required(paper_shape(128, 128, 7), p,
                               arch::default_spec()),
            ldm_bytes_required(paper_shape(128, 128, 3), p,
                               arch::default_spec()));
}

TEST(Plan, NiBlockingShrinksTheFootprint) {
  ConvPlan full, blocked;
  full.kind = blocked.kind = PlanKind::kBatchSizeAware;
  full.block_co = blocked.block_co = 1;
  blocked.block_ni = 128;
  const auto shape = paper_shape(384, 384);
  EXPECT_LT(ldm_bytes_required(shape, blocked, arch::default_spec()),
            ldm_bytes_required(shape, full, arch::default_spec()));
}

TEST(Plan, NiBlockingMustDivideChannels) {
  ConvPlan p;
  p.kind = PlanKind::kBatchSizeAware;
  p.block_co = 1;
  p.block_ni = 100;  // does not divide 384
  EXPECT_FALSE(plan_feasible(paper_shape(384, 384), p, arch::default_spec()));
}

TEST(Plan, BatchPlanFootprintGrowsWithBlockCo) {
  ConvPlan narrow, wide;
  narrow.kind = wide.kind = PlanKind::kBatchSizeAware;
  narrow.block_co = 2;
  wide.block_co = 16;
  const auto shape = paper_shape(256, 256);
  EXPECT_GT(ldm_bytes_required(shape, wide, arch::default_spec()),
            ldm_bytes_required(shape, narrow, arch::default_spec()));
}

TEST(Plan, RegisterBlockingMustFitVectorFile) {
  ConvPlan p;
  p.kind = PlanKind::kBatchSizeAware;
  p.block_co = 4;
  p.rb_b = 16;
  p.rb_no = 4;  // 4 + 4 + 16 = 24 vector registers: fits
  EXPECT_TRUE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
  p.rb_b = 32;
  p.rb_no = 8;  // 8 + 8 + 64: does not fit
  EXPECT_FALSE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
}

TEST(Plan, RejectsNonVectorRegisterBlocking) {
  ConvPlan p;
  p.kind = PlanKind::kBatchSizeAware;
  p.block_co = 4;
  p.rb_b = 6;  // not a multiple of the 4-lane vector
  EXPECT_FALSE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
}

TEST(Plan, RejectsBlockingLargerThanProblem) {
  ConvPlan p;
  p.kind = PlanKind::kImageSizeAware;
  p.block_b = 256;  // > B=128
  p.block_co = 16;
  EXPECT_FALSE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
  p.block_b = 32;
  p.block_co = 128;  // > Co=64
  EXPECT_FALSE(plan_feasible(paper_shape(128, 128), p, arch::default_spec()));
}

}  // namespace
}  // namespace swdnn::perf
