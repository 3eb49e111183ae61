#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <vector>

#include "src/conv/gemm.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

TEST(Gemm, HandComputed2x2) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50].
  std::vector<double> a = {1, 2, 3, 4}, b = {5, 6, 7, 8}, c(4, 0.0);
  gemm_naive(2, 2, 2, a, b, c);
  EXPECT_EQ(c, (std::vector<double>{19, 22, 43, 50}));
}

TEST(Gemm, Accumulates) {
  std::vector<double> a = {1, 0, 0, 1}, b = {1, 2, 3, 4}, c = {10, 0, 0, 10};
  gemm_naive(2, 2, 2, a, b, c);
  EXPECT_EQ(c, (std::vector<double>{11, 2, 3, 14}));
}

struct GemmDims {
  std::int64_t m, n, k;
};

// Without a printer gtest dumps the raw bytes into the discovered test
// names.
void PrintTo(const GemmDims& d, std::ostream* os) {
  *os << "m" << d.m << "n" << d.n << "k" << d.k;
}

class BlockedVsNaive : public ::testing::TestWithParam<GemmDims> {};

TEST_P(BlockedVsNaive, Match) {
  const auto [m, n, k] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(m * 1000 + n * 10 + k));
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> c1(static_cast<std::size_t>(m * n), 0.5);
  std::vector<double> c2 = c1;
  gemm_naive(m, n, k, a, b, c1);
  gemm_blocked(m, n, k, a, b, c2, 16);
  for (std::size_t i = 0; i < c1.size(); ++i) {
    EXPECT_NEAR(c1[i], c2[i], 1e-11);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlockedVsNaive,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{3, 5, 7},
                      GemmDims{16, 16, 16}, GemmDims{17, 33, 9},
                      GemmDims{64, 8, 40}, GemmDims{20, 100, 3}),
    [](const ::testing::TestParamInfo<GemmDims>& info) {
      return ::testing::PrintToString(info.param);
    });

TEST(Gemm, NonPositiveTileIsClampedInsteadOfHanging) {
  // Regression: tile <= 0 used to leave the i0/p0/j0 loops incrementing
  // by zero — an infinite loop. The clamp must both terminate and
  // produce the same result as the default tile.
  util::Rng rng(13);
  const std::int64_t m = 9, n = 11, k = 7;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.0);
  gemm_blocked(m, n, k, a, b, ref);  // default tile
  for (const std::int64_t tile : {0, -1, -64}) {
    std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
    gemm_blocked(m, n, k, a, b, c, tile);
    EXPECT_EQ(c, ref) << "tile=" << tile;
    std::vector<double> cp(static_cast<std::size_t>(m * n), 0.0);
    gemm_packed_parallel(m, n, k, a, b, cp, tile);
    EXPECT_EQ(cp, ref) << "packed tile=" << tile;
  }
}

TEST(Gemm, PackedParallelMatchesNaive) {
  util::Rng rng(21);
  const std::int64_t m = 23, n = 40, k = 17;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.125);
  std::vector<double> c = ref;
  gemm_naive(m, n, k, a, b, ref);
  gemm_packed_parallel(m, n, k, a, b, c, 8);
  // Same per-element ascending-k accumulation order: exact, not NEAR.
  EXPECT_EQ(c, ref);
}

TEST(Gemm, TileSizeDoesNotChangeResult) {
  util::Rng rng(9);
  const std::int64_t m = 24, n = 31, k = 18;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> ref(static_cast<std::size_t>(m * n), 0.0);
  gemm_naive(m, n, k, a, b, ref);
  for (std::int64_t tile : {1, 2, 7, 64, 1000}) {
    std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
    gemm_blocked(m, n, k, a, b, c, tile);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_NEAR(ref[i], c[i], 1e-11) << "tile=" << tile;
    }
  }
}

// gemm_packed_parallel on each register-tile instantiation against
// gemm_naive, bit for bit: odd m, n and k from 1 up, tiles from one
// row, column and term per block to one block for the whole product, a
// nonzero starting C and signed zeros in every operand, so a kernel that
// started an accumulator at +0, reordered a sum or fused a multiply-add
// would differ in some bit.
struct IsaCase {
  LocalGemmIsa isa;
  const char* label;
};

void PrintTo(const IsaCase& c, std::ostream* os) { *os << c.label; }

class PackedParallelGemm : public ::testing::TestWithParam<IsaCase> {};

void fill_with_signed_zeros(std::vector<double>& v, util::Rng& rng,
                            std::size_t period) {
  rng.fill_uniform(v, -1, 1);
  for (std::size_t i = 0; i < v.size(); i += period) v[i] = -0.0;
  for (std::size_t i = 1; i < v.size(); i += period) v[i] = 0.0;
}

TEST_P(PackedParallelGemm, SweepIsBitwiseNaive) {
  const LocalGemmIsa isa = GetParam().isa;
  if (!local_gemm_isa_supported(isa)) {
    GTEST_SKIP() << "this CPU does not support AVX2";
  }
  util::Rng rng(31);
  for (const std::int64_t m : {1, 3, 5, 9, 23, 67}) {
    for (const std::int64_t n : {1, 3, 7, 11, 33, 71}) {
      for (const std::int64_t k : {1, 5, 13, 65}) {
        std::vector<double> a(static_cast<std::size_t>(m * k));
        std::vector<double> b(static_cast<std::size_t>(k * n));
        std::vector<double> ref(static_cast<std::size_t>(m * n));
        fill_with_signed_zeros(a, rng, 5);
        fill_with_signed_zeros(b, rng, 7);
        fill_with_signed_zeros(ref, rng, 3);
        const std::vector<double> c0 = ref;
        gemm_naive(m, n, k, a, b, ref);
        for (const std::int64_t tile : {1, 7, 64, 1000}) {
          SCOPED_TRACE(::testing::Message() << "m" << m << "n" << n << "k"
                                            << k << "tile" << tile);
          std::vector<double> c = c0;
          gemm_packed_parallel(m, n, k, a, b, c, tile, isa);
          ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                                   c.size() * sizeof(double)));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, PackedParallelGemm,
    ::testing::Values(IsaCase{LocalGemmIsa::kVec2, "Vec2"},
                      IsaCase{LocalGemmIsa::kAvx2, "Avx2"}),
    [](const ::testing::TestParamInfo<IsaCase>& info) {
      return ::testing::PrintToString(info.param);
    });

}  // namespace
}  // namespace swdnn::conv
