// Winograd F(2x2, 3x3): transform identities, full-conv correctness,
// and the SW26010 trade-off analysis.

#include <gtest/gtest.h>

#include <ostream>

#include "src/conv/reference.h"
#include "src/conv/winograd.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

TEST(WinogradTransforms, OneDimensionalIdentity) {
  // F(2,3) row-check through the 2-D transforms: place a 1-D signal in
  // the first row and verify both outputs against the direct formula.
  double d[4][4] = {};
  double g[3][3] = {};
  util::Rng rng(1);
  for (int i = 0; i < 4; ++i) d[0][i] = rng.uniform(-1, 1);
  for (int i = 0; i < 3; ++i) g[0][i] = rng.uniform(-1, 1);
  // 2-D conv of a first-row-only tile with a first-row-only filter has
  // output only in the first output row.
  double u[4][4], v[4][4], m[4][4], y[2][2];
  winograd_filter_transform(g, u);
  winograd_input_transform(d, v);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) m[r][c] = u[r][c] * v[r][c];
  winograd_output_transform(m, y);
  EXPECT_NEAR(y[0][0], d[0][0] * g[0][0] + d[0][1] * g[0][1] +
                           d[0][2] * g[0][2],
              1e-12);
  EXPECT_NEAR(y[0][1], d[0][1] * g[0][0] + d[0][2] * g[0][1] +
                           d[0][3] * g[0][2],
              1e-12);
}

TEST(WinogradTransforms, FullTileMatchesDirect2d) {
  util::Rng rng(2);
  double d[4][4], g[3][3];
  for (auto& row : d)
    for (double& v : row) v = rng.uniform(-1, 1);
  for (auto& row : g)
    for (double& v : row) v = rng.uniform(-1, 1);

  double u[4][4], v4[4][4], m[4][4], y[2][2];
  winograd_filter_transform(g, u);
  winograd_input_transform(d, v4);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) m[r][c] = u[r][c] * v4[r][c];
  winograd_output_transform(m, y);

  for (int ro = 0; ro < 2; ++ro) {
    for (int co = 0; co < 2; ++co) {
      double direct = 0;
      for (int kr = 0; kr < 3; ++kr)
        for (int kc = 0; kc < 3; ++kc)
          direct += d[ro + kr][co + kc] * g[kr][kc];
      EXPECT_NEAR(y[ro][co], direct, 1e-12) << ro << "," << co;
    }
  }
}

TEST(WinogradTransforms, FilterOfOnesTransformsExactly) {
  // G * ones * G^T has a known closed form: rows scale by (1, 1.5,
  // .5, 1) in both dimensions.
  double g[3][3];
  for (auto& row : g)
    for (double& v : row) v = 1.0;
  double u[4][4];
  winograd_filter_transform(g, u);
  const double expect[4] = {1.0, 1.5, 0.5, 1.0};
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c)
      EXPECT_NEAR(u[r][c], expect[r] * expect[c], 1e-12);
}

struct WinoCase {
  ConvShape shape;
  std::string label;
};

WinoCase wc(std::int64_t b, std::int64_t ni, std::int64_t no,
            std::int64_t ro, std::int64_t co) {
  return {ConvShape::from_output(b, ni, no, ro, co, 3, 3),
          "B" + std::to_string(b) + "Ni" + std::to_string(ni) + "No" +
              std::to_string(no) + "o" + std::to_string(ro) + "x" +
              std::to_string(co)};
}

// Prints the label, not the raw bytes, so discovered test names are
// stable across runs.
void PrintTo(const WinoCase& c, std::ostream* os) { *os << c.label; }

class WinogradConv : public ::testing::TestWithParam<WinoCase> {};

TEST_P(WinogradConv, MatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(3);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(s), actual = make_output(s);
  reference_forward(in, w, expected, s);
  winograd_forward(in, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradConv,
    ::testing::Values(wc(1, 1, 1, 2, 2), wc(2, 3, 4, 4, 6),
                      wc(4, 2, 2, 6, 2), wc(2, 4, 3, 8, 8)),
    [](const ::testing::TestParamInfo<WinoCase>& info) {
      return info.param.label;
    });

TEST(WinogradConv, RejectsNon3x3Filter) {
  const ConvShape s = ConvShape::from_output(1, 1, 1, 2, 2, 5, 5);
  tensor::Tensor in = make_input(s), w = make_filter(s),
                 out = make_output(s);
  EXPECT_THROW(winograd_forward(in, w, out, s), std::invalid_argument);
}

TEST(WinogradConv, RejectsOddOutputExtent) {
  const ConvShape s = ConvShape::from_output(1, 1, 1, 3, 4, 3, 3);
  tensor::Tensor in = make_input(s), w = make_filter(s),
                 out = make_output(s);
  EXPECT_THROW(winograd_forward(in, w, out, s), std::invalid_argument);
}

TEST(WinogradAnalysisModel, NominalReductionIs2Point25) {
  const auto a = winograd_analysis(
      ConvShape::from_output(128, 128, 128, 64, 64, 3, 3));
  EXPECT_NEAR(a.multiply_reduction, 2.25, 1e-9);
  EXPECT_NEAR(a.filter_bytes_ratio, 16.0 / 9.0, 1e-12);
}

TEST(WinogradAnalysisModel, TransformsEatIntoTheGain) {
  // On a machine where adds and multiplies share one pipeline, the
  // effective speedup sits well below the nominal 2.25x — and shrinks
  // as channel depth falls (transforms amortize over ni*no).
  const auto deep = winograd_analysis(
      ConvShape::from_output(128, 256, 256, 64, 64, 3, 3));
  const auto shallow = winograd_analysis(
      ConvShape::from_output(128, 16, 16, 64, 64, 3, 3));
  EXPECT_LT(deep.effective_speedup, 2.25);
  EXPECT_GT(deep.effective_speedup, 1.5);
  EXPECT_LT(shallow.effective_speedup, deep.effective_speedup);
}

}  // namespace
}  // namespace swdnn::conv
