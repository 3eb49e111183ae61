#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <sstream>

#include "src/conv/im2col.h"
#include "src/conv/reference.h"
#include "src/tensor/pool.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

struct ShapeCase {
  ConvShape shape;
  std::string label;
};

ShapeCase sc(std::int64_t b, std::int64_t ni, std::int64_t no,
             std::int64_t ro, std::int64_t co, std::int64_t kr,
             std::int64_t kc, std::int64_t stride_r = 1,
             std::int64_t stride_c = 1) {
  std::ostringstream label;
  label << "B" << b << "Ni" << ni << "No" << no << "o" << ro << "x" << co
        << "k" << kr << "x" << kc;
  if (stride_r != 1 || stride_c != 1) {
    label << "s" << stride_r << "x" << stride_c;
  }
  return {ConvShape::from_output(b, ni, no, ro, co, kr, kc, stride_r,
                                 stride_c),
          label.str()};
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

// The lowered products as plain loops over the tensors, in the order
// the im2col kernels accumulate: every sum starts from 0.0 and adds its
// terms in ascending lowered index, each a rounded multiply then a
// rounded add. The kernels must match these bit for bit.

// out[ro][co][no][b] = sum over k = (ni, kr, kc) ascending.
tensor::Tensor lowered_forward(const tensor::Tensor& in,
                               const tensor::Tensor& w, const ConvShape& s) {
  tensor::Tensor out = make_output(s);
  for (std::int64_t ro = 0; ro < s.ro(); ++ro)
    for (std::int64_t co = 0; co < s.co(); ++co)
      for (std::int64_t no = 0; no < s.no; ++no)
        for (std::int64_t b = 0; b < s.batch; ++b) {
          double acc = 0.0;
          for (std::int64_t ni = 0; ni < s.ni; ++ni)
            for (std::int64_t kr = 0; kr < s.kr; ++kr)
              for (std::int64_t kc = 0; kc < s.kc; ++kc)
                acc += w.at(kr, kc, ni, no) *
                       in.at(ro * s.stride_r + kr, co * s.stride_c + kc, ni,
                             b);
          out.at(ro, co, no, b) = acc;
        }
  return out;
}

// dCol[(ni, kr, kc)][(ro, co, b)] = sum over no ascending, scatter-added
// into a zeroed input in col2im's (ni, kr, kc, ro, co, b) order.
tensor::Tensor lowered_backward_data(const tensor::Tensor& g,
                                     const tensor::Tensor& w,
                                     const ConvShape& s) {
  tensor::Tensor d_in = make_input(s);
  for (std::int64_t ni = 0; ni < s.ni; ++ni)
    for (std::int64_t kr = 0; kr < s.kr; ++kr)
      for (std::int64_t kc = 0; kc < s.kc; ++kc)
        for (std::int64_t ro = 0; ro < s.ro(); ++ro)
          for (std::int64_t co = 0; co < s.co(); ++co)
            for (std::int64_t b = 0; b < s.batch; ++b) {
              double acc = 0.0;
              for (std::int64_t no = 0; no < s.no; ++no)
                acc += w.at(kr, kc, ni, no) * g.at(ro, co, no, b);
              d_in.at(ro * s.stride_r + kr, co * s.stride_c + kc, ni, b) +=
                  acc;
            }
  return d_in;
}

// dW[kr][kc][ni][no] = sum over s = (ro, co, b) ascending.
tensor::Tensor lowered_backward_filter(const tensor::Tensor& in,
                                       const tensor::Tensor& g,
                                       const ConvShape& s) {
  tensor::Tensor d_w = make_filter(s);
  for (std::int64_t kr = 0; kr < s.kr; ++kr)
    for (std::int64_t kc = 0; kc < s.kc; ++kc)
      for (std::int64_t ni = 0; ni < s.ni; ++ni)
        for (std::int64_t no = 0; no < s.no; ++no) {
          double acc = 0.0;
          for (std::int64_t ro = 0; ro < s.ro(); ++ro)
            for (std::int64_t co = 0; co < s.co(); ++co)
              for (std::int64_t b = 0; b < s.batch; ++b)
                acc += g.at(ro, co, no, b) *
                       in.at(ro * s.stride_r + kr, co * s.stride_c + kc, ni,
                             b);
          d_w.at(kr, kc, ni, no) = acc;
        }
  return d_w;
}

bool same_bits(const tensor::Tensor& a, const tensor::Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

// Uniform values with signed zeros sprinkled in.
void fill(tensor::Tensor& t, util::Rng& rng) {
  rng.fill_uniform(t.data(), -1, 1);
  for (std::size_t i = 0; i < t.data().size(); i += 7) t.data()[i] = -0.0;
  for (std::size_t i = 3; i < t.data().size(); i += 11) t.data()[i] = 0.0;
}

// Runs `op` unpooled, then through a pool that `prime` has already
// filled with buffers holding other values, so the pooled call gets
// dirty buffers back. `actual` starts as garbage both times.
template <typename Op, typename Prime>
void expect_bitwise_pooled_and_unpooled(const tensor::Tensor& expected,
                                        tensor::Tensor& actual, Op op,
                                        Prime prime) {
  actual.fill(7.0);
  op(nullptr);
  EXPECT_TRUE(same_bits(expected, actual)) << "unpooled";
  tensor::TensorPool pool;
  prime(&pool);
  actual.fill(7.0);
  op(&pool);
  EXPECT_TRUE(same_bits(expected, actual)) << "pooled";
}

class Im2colBitwise : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Im2colBitwise, ForwardIsTheLoweredSum) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(41);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  tensor::Tensor in2 = make_input(s), w2 = make_filter(s);
  fill(in, rng);
  fill(w, rng);
  fill(in2, rng);
  fill(w2, rng);
  const tensor::Tensor expected = lowered_forward(in, w, s);
  tensor::Tensor actual = make_output(s), scratch = make_output(s);
  expect_bitwise_pooled_and_unpooled(
      expected, actual,
      [&](tensor::TensorPool* pool) {
        im2col_forward(in, w, actual, s, pool);
      },
      [&](tensor::TensorPool* pool) {
        im2col_forward(in2, w2, scratch, s, pool);
      });
}

TEST_P(Im2colBitwise, BackwardDataIsTheLoweredSum) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(42);
  tensor::Tensor g = make_output(s), w = make_filter(s);
  tensor::Tensor g2 = make_output(s), w2 = make_filter(s);
  fill(g, rng);
  fill(w, rng);
  fill(g2, rng);
  fill(w2, rng);
  const tensor::Tensor expected = lowered_backward_data(g, w, s);
  tensor::Tensor actual = make_input(s), scratch = make_input(s);
  expect_bitwise_pooled_and_unpooled(
      expected, actual,
      [&](tensor::TensorPool* pool) {
        im2col_backward_data(g, w, actual, s, pool);
      },
      [&](tensor::TensorPool* pool) {
        im2col_backward_data(g2, w2, scratch, s, pool);
      });
}

TEST_P(Im2colBitwise, BackwardFilterIsTheLoweredSum) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(43);
  tensor::Tensor in = make_input(s), g = make_output(s);
  tensor::Tensor in2 = make_input(s), g2 = make_output(s);
  fill(in, rng);
  fill(g, rng);
  fill(in2, rng);
  fill(g2, rng);
  const tensor::Tensor expected = lowered_backward_filter(in, g, s);
  tensor::Tensor actual = make_filter(s), scratch = make_filter(s);
  expect_bitwise_pooled_and_unpooled(
      expected, actual,
      [&](tensor::TensorPool* pool) {
        im2col_backward_filter(in, g, actual, s, pool);
      },
      [&](tensor::TensorPool* pool) {
        im2col_backward_filter(in2, g2, scratch, s, pool);
      });
}

// The forward and backward shapes above, stride 2, B = 1, the two convs
// of the hierarchical training workload (B=8, 1->20 at 28x28 with 5x5,
// 20->28 at 12x12 with 3x3) and the serving workload's conv (3->5 at 8x8
// with 3x3) at B = 1 to 4.
INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colBitwise,
    ::testing::Values(sc(1, 1, 1, 2, 2, 2, 2), sc(2, 3, 4, 4, 5, 3, 3),
                      sc(4, 2, 2, 6, 3, 1, 1), sc(3, 2, 5, 3, 3, 2, 3),
                      sc(2, 4, 3, 5, 5, 5, 5), sc(8, 1, 1, 1, 1, 3, 3),
                      sc(2, 3, 4, 3, 4, 3, 3, 2, 2),
                      sc(3, 2, 2, 2, 3, 2, 3, 2, 3), sc(1, 3, 2, 4, 4, 3, 3),
                      sc(8, 1, 20, 24, 24, 5, 5), sc(8, 20, 28, 10, 10, 3, 3),
                      sc(1, 3, 5, 6, 6, 3, 3), sc(2, 3, 5, 6, 6, 3, 3),
                      sc(3, 3, 5, 6, 6, 3, 3), sc(4, 3, 5, 6, 6, 3, 3)),
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
