// Training-side gradients through the mesh: backward-data as a forward
// convolution on transformed tensors, backward-filter as per-tap
// distributed GEMMs — both checked against the reference gradients.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "src/conv/backward.h"
#include "src/conv/mesh_gemm_driver.h"
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

TEST(BackwardTransforms, ZeroPadPlacesGradientInTheMiddle) {
  const ConvShape s = ConvShape::from_output(1, 1, 1, 2, 2, 3, 3);
  tensor::Tensor g = make_output(s);
  g.at(0, 0, 0, 0) = 5.0;
  g.at(1, 1, 0, 0) = 7.0;
  tensor::Tensor padded({6, 6, 1, 1});
  zero_pad_output_gradient(g, s, padded);
  EXPECT_EQ(padded.at(2, 2, 0, 0), 5.0);
  EXPECT_EQ(padded.at(3, 3, 0, 0), 7.0);
  EXPECT_EQ(padded.at(0, 0, 0, 0), 0.0);
}

TEST(BackwardTransforms, RotateFlipsSpatialAndSwapsChannels) {
  const ConvShape s = ConvShape::from_output(1, 2, 3, 2, 2, 2, 3);
  tensor::Tensor w = make_filter(s);
  w.at(0, 0, 1, 2) = 4.0;  // kr=0, kc=0, ni=1, no=2
  tensor::Tensor r({2, 3, 3, 2});
  rotate_filter(w, s, r);
  EXPECT_EQ(r.at(1, 2, 2, 1), 4.0);  // Kr-1-0=1, Kc-1-0=2, no=2, ni=1
}

TEST(BackwardTransforms, BackwardShapeSwapsChannelsKeepsGeometry) {
  const ConvShape s = ConvShape::from_output(4, 2, 6, 5, 7, 3, 2);
  const ConvShape bs = backward_data_shape(s);
  EXPECT_EQ(bs.ni, s.no);
  EXPECT_EQ(bs.no, s.ni);
  EXPECT_EQ(bs.ro(), s.ri);
  EXPECT_EQ(bs.co(), s.ci);
  EXPECT_EQ(bs.kr, s.kr);
  EXPECT_EQ(bs.kc, s.kc);
  EXPECT_EQ(bs.batch, s.batch);
}

struct BwdCase {
  int mesh;
  ConvShape shape;
  std::string label;
};

BwdCase bc(int mesh, std::int64_t b, std::int64_t ni, std::int64_t no,
           std::int64_t ro, std::int64_t co, std::int64_t k) {
  return {mesh, ConvShape::from_output(b, ni, no, ro, co, k, k),
          "mesh" + std::to_string(mesh) + "_B" + std::to_string(b) + "Ni" +
              std::to_string(ni) + "No" + std::to_string(no) + "o" +
              std::to_string(ro) + "x" + std::to_string(co) + "k" +
              std::to_string(k)};
}

// Without a printer gtest puts the raw parameter bytes, padding and the
// label's heap address included, into the discovered test names.
void PrintTo(const BwdCase& tc, std::ostream* os) { *os << tc.label; }

class BackwardData : public ::testing::TestWithParam<BwdCase> {};

TEST_P(BackwardData, MeshMatchesReference) {
  const BwdCase& tc = GetParam();
  util::Rng rng(61);
  tensor::Tensor w = make_filter(tc.shape);
  tensor::Tensor dout = make_output(tc.shape);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(dout.data(), -1, 1);

  tensor::Tensor expected = make_input(tc.shape);
  reference_backward_data(dout, w, expected, tc.shape);

  SwConvolution sw(mesh_spec(tc.mesh));
  tensor::Tensor din = make_input(tc.shape);
  swconv_backward_data(sw, dout, w, din, tc.shape);
  EXPECT_LE(expected.max_abs_diff(din), 1e-11) << tc.label;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardData,
    ::testing::Values(bc(2, 4, 2, 2, 3, 4, 2), bc(2, 4, 4, 2, 4, 4, 3),
                      bc(2, 8, 2, 4, 2, 6, 1), bc(4, 8, 4, 4, 3, 4, 2),
                      bc(4, 8, 8, 4, 2, 4, 3)),
    [](const ::testing::TestParamInfo<BwdCase>& info) {
      return info.param.label;
    });

class BackwardFilter : public ::testing::TestWithParam<BwdCase> {};

TEST_P(BackwardFilter, MeshMatchesReference) {
  const BwdCase& tc = GetParam();
  util::Rng rng(62);
  tensor::Tensor in = make_input(tc.shape);
  tensor::Tensor dout = make_output(tc.shape);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(dout.data(), -1, 1);

  tensor::Tensor expected = make_filter(tc.shape);
  reference_backward_filter(in, dout, expected, tc.shape);

  sim::MeshExecutor exec(mesh_spec(tc.mesh));
  tensor::Tensor dw = make_filter(tc.shape);
  const auto stats = mesh_backward_filter(exec, in, dout, dw, tc.shape);
  EXPECT_LE(expected.max_abs_diff(dw), 1e-10) << tc.label;
  EXPECT_GT(stats.total_flops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BackwardFilter,
    ::testing::Values(bc(2, 4, 2, 2, 3, 4, 2), bc(2, 4, 4, 2, 4, 4, 3),
                      bc(2, 3, 2, 5, 2, 3, 1),  // ragged everything
                      bc(4, 8, 4, 4, 3, 4, 2), bc(4, 5, 3, 7, 2, 3, 3)),
    [](const ::testing::TestParamInfo<BwdCase>& info) {
      return info.param.label;
    });

TEST(BackwardFilterStats, TotalIsEveryTapLaunchSummed) {
  // One GEMM launch per filter tap, all of the same dims, so the total
  // is Kr*Kc times one tap's launch — misaligned DMA requests included.
  const ConvShape s = ConvShape::from_output(8, 3, 5, 6, 6, 3, 3);  // 8x8
  util::Rng rng(64);
  tensor::Tensor in = make_input(s);
  tensor::Tensor dout = make_output(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(dout.data(), -1, 1);

  sim::MeshExecutor exec;
  tensor::Tensor dw = make_filter(s);
  const sim::LaunchStats total = mesh_backward_filter(exec, in, dout, dw, s);

  const std::int64_t s_len = s.ro() * s.co() * s.batch;
  std::vector<double> in_mat(static_cast<std::size_t>(s_len * s.ni));
  std::vector<double> dout_mat(static_cast<std::size_t>(s_len * s.no));
  std::vector<double> dw_tap(static_cast<std::size_t>(s.ni * s.no));
  const sim::LaunchStats tap =
      mesh_gemm(exec, in_mat, dout_mat, dw_tap, s.ni, s_len, s.no);
  const auto taps = static_cast<std::uint64_t>(s.kr * s.kc);
  ASSERT_GT(tap.dma.misaligned_requests, 0u);
  EXPECT_EQ(total.dma.requests, taps * tap.dma.requests);
  EXPECT_EQ(total.dma.misaligned_requests, taps * tap.dma.misaligned_requests);
  EXPECT_EQ(total.total_flops, taps * tap.total_flops);
  EXPECT_FALSE(total.failed);
}

TEST(BackwardRoundTrip, ForwardThenBackwardDataIsLinearAdjoint) {
  // <conv(x, w), g> == <x, backward_data(g, w)> — the adjoint identity
  // that makes backprop through the mesh kernels correct.
  const ConvShape s = ConvShape::from_output(4, 2, 4, 3, 4, 2, 2);
  util::Rng rng(63);
  tensor::Tensor x = make_input(s), w = make_filter(s), g = make_output(s);
  rng.fill_uniform(x.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(g.data(), -1, 1);

  SwConvolution sw(mesh_spec(2));
  tensor::Tensor y = make_output(s);
  sw.forward(x, w, y, s);
  tensor::Tensor xg = make_input(s);
  swconv_backward_data(sw, g, w, xg, s);

  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < y.size(); ++i) {
    lhs += y.data()[i] * g.data()[i];
  }
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += x.data()[i] * xg.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

}  // namespace
}  // namespace swdnn::conv
