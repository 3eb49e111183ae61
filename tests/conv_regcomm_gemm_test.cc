// The Fig. 3 mesh GEMM: distributed tiles, bus-only operand exchange.

#include <gtest/gtest.h>

#include <vector>

#include "src/conv/gemm.h"
#include "src/conv/regcomm_gemm.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

TEST(BusHelpers, BroadcastAndReceiveArbitraryLengths) {
  const arch::Sw26010Spec spec = mesh_spec(2);
  sim::MeshExecutor exec(spec);
  for (std::size_t len : {1u, 3u, 4u, 5u, 11u}) {
    std::vector<double> received(4 * len, -1);
    exec.run([&, len](sim::CpeContext& ctx) {
      std::vector<double> payload(len);
      if (ctx.col() == 0) {
        for (std::size_t i = 0; i < len; ++i) {
          payload[i] = static_cast<double>(ctx.row() * 100 + i);
        }
        bus_broadcast_row(ctx, payload);
      } else {
        const std::span<const double> got = bus_recv_row(ctx, payload);
        std::copy(got.begin(), got.end(),
                  received.begin() +
                      static_cast<std::ptrdiff_t>(ctx.id() * len));
      }
    });
    for (int r = 0; r < 2; ++r) {
      for (std::size_t i = 0; i < len; ++i) {
        EXPECT_EQ(received[static_cast<std::size_t>(r * 2 + 1) * len + i],
                  static_cast<double>(r * 100 + static_cast<int>(i)))
            << "len=" << len;
      }
    }
  }
}

// Full distributed GEMM: scatter W[k][m-major] and Di, run the mesh
// contraction, gather Do, compare against a host GEMM.
void run_mesh_gemm_case(int mesh_dim, int m_tile, int k_tile, int n_tile,
                        std::uint64_t seed) {
  const int p = mesh_dim;
  const int m = m_tile * p, k = k_tile * p, n = n_tile * p;
  util::Rng rng(seed);
  // Global operands. W stored [k][m] (channel-major), Di [k][n].
  std::vector<double> w(static_cast<std::size_t>(k * m));
  std::vector<double> di(static_cast<std::size_t>(k * n));
  rng.fill_uniform(w, -1, 1);
  rng.fill_uniform(di, -1, 1);

  // Expected: Do[mm][nn] = sum_kk W[kk][mm] * Di[kk][nn].
  std::vector<double> expected(static_cast<std::size_t>(m * n), 0.0);
  for (int kk = 0; kk < k; ++kk)
    for (int mm = 0; mm < m; ++mm)
      for (int nn = 0; nn < n; ++nn)
        expected[static_cast<std::size_t>(mm * n + nn)] +=
            w[static_cast<std::size_t>(kk * m + mm)] *
            di[static_cast<std::size_t>(kk * n + nn)];

  std::vector<double> actual(static_cast<std::size_t>(m * n), 0.0);
  sim::MeshExecutor exec(mesh_spec(p));
  const sim::LaunchStats stats = exec.run([&](sim::CpeContext& ctx) {
    const int i = ctx.row(), j = ctx.col();
    auto w_local = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(k_tile * m_tile));
    auto w_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(k_tile * m_tile));
    auto di_local = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(k_tile * n_tile));
    auto di_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(k_tile * n_tile));
    auto do_local = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(m_tile * n_tile));
    // CPE(i,j) owns W(i,j): no-block i (m), ni-block j (k) — stored
    // [k_local][m_local]; Di(i,j): ni-block i, n-block j.
    for (int kl = 0; kl < k_tile; ++kl)
      for (int ml = 0; ml < m_tile; ++ml)
        w_local[static_cast<std::size_t>(kl * m_tile + ml)] =
            w[static_cast<std::size_t>((j * k_tile + kl) * m +
                                       (i * m_tile + ml))];
    for (int kl = 0; kl < k_tile; ++kl)
      for (int nl = 0; nl < n_tile; ++nl)
        di_local[static_cast<std::size_t>(kl * n_tile + nl)] =
            di[static_cast<std::size_t>((i * k_tile + kl) * n +
                                        (j * n_tile + nl))];
    std::fill(do_local.begin(), do_local.end(), 0.0);
    mesh_gemm_accumulate(ctx, w_local, di_local, do_local, w_recv, di_recv,
                         m_tile, k_tile, n_tile);
    for (int ml = 0; ml < m_tile; ++ml)
      for (int nl = 0; nl < n_tile; ++nl)
        actual[static_cast<std::size_t>((i * m_tile + ml) * n +
                                        (j * n_tile + nl))] =
            do_local[static_cast<std::size_t>(ml * n_tile + nl)];
  });

  for (std::size_t idx = 0; idx < expected.size(); ++idx) {
    ASSERT_NEAR(expected[idx], actual[idx], 1e-12)
        << "mesh=" << p << " idx=" << idx;
  }
  EXPECT_EQ(stats.total_flops,
            2ull * static_cast<std::uint64_t>(m) * k * n);
  EXPECT_GT(stats.regcomm_messages, 0u);
}

TEST(MeshGemm, Mesh2SquareTiles) { run_mesh_gemm_case(2, 2, 2, 2, 21); }
TEST(MeshGemm, Mesh2RectangularTiles) { run_mesh_gemm_case(2, 3, 2, 5, 22); }
TEST(MeshGemm, Mesh2SingleElementTiles) { run_mesh_gemm_case(2, 1, 1, 1, 23); }
TEST(MeshGemm, Mesh4SquareTiles) { run_mesh_gemm_case(4, 2, 2, 2, 24); }
TEST(MeshGemm, Mesh4WideTiles) { run_mesh_gemm_case(4, 1, 2, 6, 25); }
TEST(MeshGemm, Mesh8SmallTiles) { run_mesh_gemm_case(8, 1, 1, 2, 26); }

TEST(MeshGemm, AccumulatesOnTopOfExistingOutput) {
  // Calling the contraction twice doubles the result.
  const arch::Sw26010Spec spec = mesh_spec(2);
  sim::MeshExecutor exec(spec);
  std::vector<double> once(4, 0), twice(4, 0);
  for (int repeats = 1; repeats <= 2; ++repeats) {
    auto& sink = repeats == 1 ? once : twice;
    exec.run([&, repeats](sim::CpeContext& ctx) {
      auto w = ctx.ldm().alloc_doubles(1);
      auto wr = ctx.ldm().alloc_doubles(1);
      auto d = ctx.ldm().alloc_doubles(1);
      auto dr = ctx.ldm().alloc_doubles(1);
      auto o = ctx.ldm().alloc_doubles(1);
      w[0] = 1.0 + ctx.id();
      d[0] = 2.0;
      o[0] = 0.0;
      for (int rep = 0; rep < repeats; ++rep) {
        mesh_gemm_accumulate(ctx, w, d, o, wr, dr, 1, 1, 1);
      }
      sink[static_cast<std::size_t>(ctx.id())] = o[0];
    });
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(twice[i], 2.0 * once[i]);
  }
}

TEST(LocalGemm, MatchesHostGemmTransposedConvention) {
  // local_gemm_accumulate consumes W as [k][m]; verify against
  // gemm_naive with an explicitly transposed A.
  const int m = 3, k = 4, n = 5;
  util::Rng rng(31);
  std::vector<double> w_km(static_cast<std::size_t>(k * m));
  std::vector<double> di(static_cast<std::size_t>(k * n));
  rng.fill_uniform(w_km, -1, 1);
  rng.fill_uniform(di, -1, 1);
  std::vector<double> a_mk(static_cast<std::size_t>(m * k));
  for (int kk = 0; kk < k; ++kk)
    for (int mm = 0; mm < m; ++mm)
      a_mk[static_cast<std::size_t>(mm * k + kk)] =
          w_km[static_cast<std::size_t>(kk * m + mm)];
  std::vector<double> expected(static_cast<std::size_t>(m * n), 0.0);
  gemm_naive(m, n, k, a_mk, di, expected);

  std::vector<double> actual(static_cast<std::size_t>(m * n), 0.0);
  sim::MeshExecutor exec(mesh_spec(2));
  exec.run([&](sim::CpeContext& ctx) {
    if (ctx.id() != 0) return;
    std::vector<double> out(static_cast<std::size_t>(m * n), 0.0);
    local_gemm_accumulate(ctx, w_km, di, out, m, k, n);
    actual = out;
  });
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(expected[i], actual[i], 1e-12);
  }
}

}  // namespace
}  // namespace swdnn::conv
