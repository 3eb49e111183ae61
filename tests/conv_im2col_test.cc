#include <gtest/gtest.h>

#include <ostream>

#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

struct ShapeCase {
  ConvShape shape;
  std::string label;
};

ShapeCase sc(std::int64_t b, std::int64_t ni, std::int64_t no,
             std::int64_t ro, std::int64_t co, std::int64_t kr,
             std::int64_t kc) {
  return {ConvShape::from_output(b, ni, no, ro, co, kr, kc),
          "B" + std::to_string(b) + "Ni" + std::to_string(ni) + "No" +
              std::to_string(no) + "o" + std::to_string(ro) + "x" +
              std::to_string(co) + "k" + std::to_string(kr) + "x" +
              std::to_string(kc)};
}

// Prints the label, not the raw bytes, so discovered test names are
// stable across runs.
void PrintTo(const ShapeCase& c, std::ostream* os) { *os << c.label; }

class Im2colForward : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Im2colForward, MatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(11);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(s), actual = make_output(s);
  reference_forward(in, w, expected, s);
  im2col_forward(in, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colForward,
    ::testing::Values(sc(1, 1, 1, 2, 2, 2, 2), sc(2, 3, 4, 4, 5, 3, 3),
                      sc(4, 2, 2, 6, 3, 1, 1), sc(3, 2, 5, 3, 3, 2, 3),
                      sc(2, 4, 3, 5, 5, 5, 5), sc(8, 1, 1, 1, 1, 3, 3)),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return info.param.label;
    });

TEST(Im2col, ColumnMatrixShape) {
  const ConvShape s = ConvShape::from_output(2, 3, 4, 5, 6, 2, 3);
  const tensor::Tensor cols = im2col(make_input(s), s);
  EXPECT_EQ(cols.dim(0), 3 * 2 * 3);
  EXPECT_EQ(cols.dim(1), 5 * 6 * 2);
}

TEST(Im2col, EntriesPointIntoInput) {
  const ConvShape s = ConvShape::from_output(1, 1, 1, 2, 2, 2, 2);
  tensor::Tensor in = make_input(s);
  for (std::int64_t i = 0; i < in.size(); ++i) {
    in.data()[i] = static_cast<double>(i);
  }
  const tensor::Tensor cols = im2col(in, s);
  // Row (kr=1,kc=1), output pixel (ro=1,co=1) -> in[2][2].
  EXPECT_EQ(cols.at(3, 3), in.at(2, 2, 0, 0));
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> — the property that makes the
  // GEMM-lowered backward-data pass correct.
  const ConvShape s = ConvShape::from_output(2, 2, 1, 3, 4, 2, 2);
  util::Rng rng(12);
  tensor::Tensor x = make_input(s);
  rng.fill_uniform(x.data(), -1, 1);
  tensor::Tensor y({s.ni * s.kr * s.kc, s.ro() * s.co() * s.batch});
  rng.fill_uniform(y.data(), -1, 1);

  const tensor::Tensor cx = im2col(x, s);
  double lhs = 0;
  for (std::int64_t i = 0; i < cx.size(); ++i) {
    lhs += cx.data()[i] * y.data()[i];
  }
  tensor::Tensor cty = make_input(s);
  col2im_add(y, cty, s);
  double rhs = 0;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += x.data()[i] * cty.data()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

class Im2colBackward : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Im2colBackward, DataGradientMatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(13);
  tensor::Tensor w = make_filter(s), g = make_output(s);
  rng.fill_uniform(w.data(), -1, 1);
  rng.fill_uniform(g.data(), -1, 1);
  tensor::Tensor expected = make_input(s), actual = make_input(s);
  reference_backward_data(g, w, expected, s);
  im2col_backward_data(g, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-10);
}

TEST_P(Im2colBackward, FilterGradientMatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(14);
  tensor::Tensor in = make_input(s), g = make_output(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(g.data(), -1, 1);
  tensor::Tensor expected = make_filter(s), actual = make_filter(s);
  reference_backward_filter(in, g, expected, s);
  im2col_backward_filter(in, g, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colBackward,
    ::testing::Values(sc(1, 1, 1, 2, 2, 2, 2), sc(2, 3, 4, 4, 5, 3, 3),
                      sc(4, 2, 2, 6, 3, 1, 1), sc(3, 2, 5, 3, 3, 2, 3)),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return info.param.label;
    });

TEST(Im2col, FilterMatrixLayout) {
  const ConvShape s = ConvShape::from_output(1, 2, 3, 2, 2, 2, 2);
  tensor::Tensor w = make_filter(s);
  w.at(1, 0, 1, 2) = 5.0;  // kr=1, kc=0, ni=1, no=2
  const tensor::Tensor m = filter_matrix(w, s);
  EXPECT_EQ(m.at(2, (1 * 2 + 1) * 2 + 0), 5.0);
}

}  // namespace
}  // namespace swdnn::conv
