// Strided convolutions through the host stack (the mesh kernels stay
// stride-1 per the paper; the layer stack composes strided layers from
// the im2col path).

#include <gtest/gtest.h>

#include <ostream>

#include "src/conv/backward.h"
#include "src/conv/fftconv.h"
#include "src/conv/im2col.h"
#include "src/conv/ldm_blocked.h"
#include "src/conv/reference.h"
#include "src/conv/winograd.h"
#include "src/dnn/convolution.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

TEST(StridedShape, FromOutputComputesInputSize) {
  const ConvShape s = ConvShape::from_output(2, 1, 1, 3, 4, 3, 3, 2, 2);
  EXPECT_EQ(s.ri, 2 * 2 + 3);  // (3-1)*2 + 3
  EXPECT_EQ(s.ci, 3 * 2 + 3);
  EXPECT_EQ(s.ro(), 3);
  EXPECT_EQ(s.co(), 4);
  EXPECT_NE(s.to_string().find("stride=2x2"), std::string::npos);
}

TEST(StridedShape, RejectsBadStride) {
  ConvShape s = ConvShape::from_output(1, 1, 1, 2, 2, 2, 2);
  s.stride_r = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(StridedReference, Stride2SamplesEveryOtherWindow) {
  // 5x5 input, 1x1 unit filter, stride 2: output = input[0,2,4] grid.
  ConvShape s;
  s.batch = 1;
  s.ni = s.no = 1;
  s.ri = s.ci = 5;
  s.kr = s.kc = 1;
  s.stride_r = s.stride_c = 2;
  tensor::Tensor in = make_input(s), w = make_filter(s);
  w.fill(1.0);
  for (std::int64_t r = 0; r < 5; ++r)
    for (std::int64_t c = 0; c < 5; ++c)
      in.at(r, c, 0, 0) = static_cast<double>(r * 5 + c);
  tensor::Tensor out = make_output(s);
  EXPECT_EQ(s.ro(), 3);
  reference_forward(in, w, out, s);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0, 0, 0), 10.0);
  EXPECT_DOUBLE_EQ(out.at(2, 2, 0, 0), 24.0);
}

struct StrideCase {
  ConvShape shape;
  std::string label;
};

StrideCase stc(std::int64_t b, std::int64_t ni, std::int64_t no,
               std::int64_t ro, std::int64_t co, std::int64_t k,
               std::int64_t sr, std::int64_t sc) {
  return {ConvShape::from_output(b, ni, no, ro, co, k, k, sr, sc),
          "B" + std::to_string(b) + "Ni" + std::to_string(ni) + "No" +
              std::to_string(no) + "o" + std::to_string(ro) + "x" +
              std::to_string(co) + "k" + std::to_string(k) + "s" +
              std::to_string(sr) + "x" + std::to_string(sc)};
}

// Prints the label, not the raw bytes, so discovered test names are
// stable across runs.
void PrintTo(const StrideCase& c, std::ostream* os) { *os << c.label; }

class StridedPaths : public ::testing::TestWithParam<StrideCase> {};

TEST_P(StridedPaths, Im2colMatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(121);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(s), actual = make_output(s);
  reference_forward(in, w, expected, s);
  im2col_forward(in, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-11);
}

TEST_P(StridedPaths, FftMatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(122);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(s), actual = make_output(s);
  reference_forward(in, w, expected, s);
  fft_conv_forward(in, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-9);
}

TEST_P(StridedPaths, GradientsMatchFiniteDifferences) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(123);
  tensor::Tensor in = make_input(s), w = make_filter(s), g = make_output(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(g.data(), -1, 1);

  tensor::Tensor din = make_input(s), dw = make_filter(s);
  im2col_backward_data(g, w, din, s);
  im2col_backward_filter(in, g, dw, s);

  auto loss_of = [&](const tensor::Tensor& x, const tensor::Tensor& f) {
    tensor::Tensor out = make_output(s);
    reference_forward(x, f, out, s);
    double loss = 0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      loss += out.data()[i] * g.data()[i];
    }
    return loss;
  };
  const double h = 1e-6;
  for (std::int64_t idx : {0L, static_cast<long>(in.size() / 2)}) {
    tensor::Tensor plus = in, minus = in;
    plus.data()[idx] += h;
    minus.data()[idx] -= h;
    EXPECT_NEAR(din.data()[idx],
                (loss_of(plus, w) - loss_of(minus, w)) / (2 * h), 1e-6);
  }
  {
    const std::int64_t idx = w.size() / 2;
    tensor::Tensor plus = w, minus = w;
    plus.data()[idx] += h;
    minus.data()[idx] -= h;
    EXPECT_NEAR(dw.data()[idx],
                (loss_of(in, plus) - loss_of(in, minus)) / (2 * h), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StridedPaths,
    ::testing::Values(stc(2, 2, 3, 3, 3, 3, 2, 2), stc(1, 1, 1, 2, 4, 2, 3, 1),
                      stc(3, 2, 2, 2, 2, 3, 2, 3), stc(2, 3, 2, 4, 3, 1, 2, 2)),
    [](const ::testing::TestParamInfo<StrideCase>& info) {
      return info.param.label;
    });

TEST(StridedLayer, ConvolutionLayerTrainsWithStride2) {
  util::Rng rng(124);
  const ConvShape s = ConvShape::from_output(4, 1, 2, 3, 3, 3, 3, 2, 2);
  dnn::Convolution layer(s, rng);
  tensor::Tensor x = make_input(s);
  rng.fill_uniform(x.data(), -1, 1);
  const tensor::Tensor y = layer.forward(x);
  EXPECT_EQ(y.dims(), (std::vector<std::int64_t>{3, 3, 2, 4}));
  tensor::Tensor g(y.dims());
  rng.fill_uniform(g.data(), -1, 1);
  const tensor::Tensor dx = layer.backward(g);
  EXPECT_EQ(dx.dims(), x.dims());
  // Gradient check on one filter element.
  auto params = layer.params();
  const double analytic = params[0].grad->data()[4];
  auto loss_of = [&] {
    const tensor::Tensor out = layer.forward(x);
    double loss = 0;
    for (std::int64_t i = 0; i < out.size(); ++i) {
      loss += out.data()[i] * g.data()[i];
    }
    return loss;
  };
  const double h = 1e-6;
  const double orig = params[0].param->data()[4];
  params[0].param->data()[4] = orig + h;
  const double lp = loss_of();
  params[0].param->data()[4] = orig - h;
  const double lm = loss_of();
  params[0].param->data()[4] = orig;
  EXPECT_NEAR(analytic, (lp - lm) / (2 * h), 1e-6);
}

TEST(StridedGuards, MeshKernelsRejectStride) {
  const ConvShape s = ConvShape::from_output(4, 2, 2, 2, 2, 3, 3, 2, 2);
  perf::ConvPlan plan;
  plan.kind = perf::PlanKind::kBatchSizeAware;
  plan.block_co = 2;
  EXPECT_THROW(check_mesh_compatibility(s, plan, 2), std::invalid_argument);
}

TEST(StridedGuards, WinogradRejectsStride) {
  const ConvShape s = ConvShape::from_output(1, 1, 1, 2, 2, 3, 3, 2, 2);
  tensor::Tensor in = make_input(s), w = make_filter(s), out = make_output(s);
  EXPECT_THROW(winograd_forward(in, w, out, s), std::invalid_argument);
}

TEST(StridedGuards, MeshBackwardDataRejectsStride) {
  const ConvShape s = ConvShape::from_output(4, 2, 2, 2, 2, 3, 3, 2, 2);
  SwConvolution sw;
  tensor::Tensor dout = make_output(s), w = make_filter(s),
                 din = make_input(s);
  EXPECT_THROW(swconv_backward_data(sw, dout, w, din, s),
               std::invalid_argument);
}

}  // namespace
}  // namespace swdnn::conv
