// The host-facing distributed GEMM driver: arbitrary shapes (including
// ragged tiles and contraction chunking) must match a host GEMM.

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "src/conv/mesh_gemm_driver.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

// Host oracle for out[m][n] (+)= sum_k a[k][m] * b[k][n].
std::vector<double> host_gemm_km(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n,
                                 std::vector<double> init = {}) {
  std::vector<double> out =
      init.empty() ? std::vector<double>(static_cast<std::size_t>(m * n), 0.0)
                   : std::move(init);
  for (std::int64_t kk = 0; kk < k; ++kk)
    for (std::int64_t mm = 0; mm < m; ++mm)
      for (std::int64_t nn = 0; nn < n; ++nn)
        out[static_cast<std::size_t>(mm * n + nn)] +=
            a[static_cast<std::size_t>(kk * m + mm)] *
            b[static_cast<std::size_t>(kk * n + nn)];
  return out;
}

struct GemmCase {
  int mesh;
  std::int64_t m, k, n;
  std::int64_t k_chunk;  // 0 = auto
  std::string label;
};

GemmCase gc(int mesh, std::int64_t m, std::int64_t k, std::int64_t n,
            std::int64_t k_chunk = 0) {
  return {mesh, m, k, n, k_chunk,
          "mesh" + std::to_string(mesh) + "_m" + std::to_string(m) + "k" +
              std::to_string(k) + "n" + std::to_string(n) + "c" +
              std::to_string(k_chunk)};
}

// Without a printer gtest dumps the raw bytes, padding and heap address
// included, into the discovered test names, so they changed every run.
void PrintTo(const GemmCase& tc, std::ostream* os) { *os << tc.label; }

class MeshGemmDriver : public ::testing::TestWithParam<GemmCase> {};

TEST_P(MeshGemmDriver, MatchesHostGemm) {
  const GemmCase& tc = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(tc.m * 131 + tc.k * 17 + tc.n));
  std::vector<double> a(static_cast<std::size_t>(tc.k * tc.m));
  std::vector<double> b(static_cast<std::size_t>(tc.k * tc.n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> out(static_cast<std::size_t>(tc.m * tc.n), 99.0);

  sim::MeshExecutor exec(mesh_spec(tc.mesh));
  MeshGemmOptions opts;
  opts.k_chunk = tc.k_chunk;
  const sim::LaunchStats stats =
      mesh_gemm(exec, a, b, out, tc.m, tc.k, tc.n, opts);

  const std::vector<double> expected = host_gemm_km(a, b, tc.m, tc.k, tc.n);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_NEAR(out[i], expected[i], 1e-11) << tc.label << " idx " << i;
  }
  EXPECT_GT(stats.total_flops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshGemmDriver,
    ::testing::Values(
        // Divisible tiles.
        gc(2, 4, 4, 4), gc(2, 8, 6, 4), gc(4, 8, 8, 8),
        // Ragged in every dimension.
        gc(2, 3, 5, 7), gc(2, 1, 1, 1), gc(4, 5, 9, 6), gc(4, 7, 3, 13),
        // Dimensions smaller than the mesh.
        gc(4, 2, 2, 3), gc(8, 3, 5, 2),
        // Forced contraction chunking, also by chunks that are not a
        // multiple of the mesh dimension (each pass still loads whole
        // row blocks, and no row twice).
        gc(2, 4, 16, 4, 4), gc(2, 5, 23, 3, 8), gc(4, 6, 32, 6, 8),
        gc(2, 5, 7, 3, 3), gc(8, 9, 30, 5, 10)),
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      return info.param.label;
    });

TEST(MeshGemmDriver, AccumulateAddsIntoExistingOutput) {
  const std::int64_t m = 5, k = 7, n = 6;
  util::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(k * m));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> init(static_cast<std::size_t>(m * n));
  rng.fill_uniform(init, -1, 1);
  std::vector<double> out = init;

  sim::MeshExecutor exec(mesh_spec(2));
  MeshGemmOptions opts;
  opts.accumulate = true;
  mesh_gemm(exec, a, b, out, m, k, n, opts);

  const std::vector<double> expected = host_gemm_km(a, b, m, k, n, init);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-11);
  }
}

TEST(MeshGemmDriver, ChunkedEqualsUnchunked) {
  const std::int64_t m = 6, k = 24, n = 5;
  util::Rng rng(12);
  std::vector<double> a(static_cast<std::size_t>(k * m));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  sim::MeshExecutor exec(mesh_spec(2));

  std::vector<double> full(static_cast<std::size_t>(m * n), 0.0);
  mesh_gemm(exec, a, b, full, m, k, n);
  for (std::int64_t chunk : {2, 3, 5, 6, 8, 24}) {
    std::vector<double> chunked(static_cast<std::size_t>(m * n), 0.0);
    MeshGemmOptions opts;
    opts.k_chunk = chunk;
    mesh_gemm(exec, a, b, chunked, m, k, n, opts);
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i], chunked[i], 1e-11) << "chunk=" << chunk;
    }
  }
}

TEST(MeshGemmDriver, DefaultChunkRespectsLdm) {
  const auto& spec = arch::default_spec();
  // A contraction too deep for one LDM pass must be chunked below k.
  const std::int64_t chunk = mesh_gemm_default_k_chunk(spec, 64, 100000, 64);
  EXPECT_LT(chunk, 100000);
  EXPECT_GE(chunk, 1);
  // A small problem runs in one pass.
  EXPECT_EQ(mesh_gemm_default_k_chunk(spec, 8, 16, 8), 16);
}

TEST(MeshGemmDriver, RejectsOversizedOutputTile) {
  const auto& spec = arch::default_spec();
  // m_t * n_t = (m/8)*(n/8) doubles must fit the LDM budget.
  EXPECT_THROW(mesh_gemm_default_k_chunk(spec, 8000, 8, 8000),
               std::invalid_argument);
}

TEST(MeshGemmDriver, RejectsBadArguments) {
  sim::MeshExecutor exec(mesh_spec(2));
  std::vector<double> a(4), b(4), out(4);
  EXPECT_THROW(mesh_gemm(exec, a, b, out, 0, 2, 2), std::invalid_argument);
  EXPECT_THROW(mesh_gemm(exec, a, b, out, 2, 2, 3), std::invalid_argument);
}

TEST(MeshGemmDriver, EveryCpeContributes) {
  // With tiles covering the whole mesh, total flops = P steps per CPE.
  const std::int64_t m = 8, k = 8, n = 8;
  util::Rng rng(13);
  std::vector<double> a(static_cast<std::size_t>(k * m));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_uniform(a, -1, 1);
  rng.fill_uniform(b, -1, 1);
  std::vector<double> out(static_cast<std::size_t>(m * n), 0.0);
  sim::MeshExecutor exec(mesh_spec(4));
  const auto stats = mesh_gemm(exec, a, b, out, m, k, n);
  // 16 CPEs x 4 mesh steps x 2*2*2*2 tile flops = padded contraction.
  EXPECT_EQ(stats.total_flops, 16u * 4u * 2u * 2u * 2u * 2u);
  EXPECT_GT(stats.regcomm_messages, 0u);
}

}  // namespace
}  // namespace swdnn::conv
