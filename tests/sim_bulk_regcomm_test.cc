// Observable-equivalence regression tests for the simulator fast paths.
//
// The simulator's fast paths — CPE fibers on the launching thread, the
// bulk span-level bus primitives, and the register-blocked local GEMM —
// promise one invariant: *no modeled observable changes*. These tests
// hold them to that — the same mesh GEMM is run through (fibers + bulk
// spans + blocked microkernel) and through (spawn-per-launch threads +
// Vec4 loop + naive microkernel, the straightforward implementation
// kept as the oracle), and the outputs must be bitwise identical while
// every LaunchStats field must be exactly equal. Mesh sizes below 8x8
// and tile shapes that are not multiples of the Vec4 width or the 4x4
// register block exercise the padding/tail paths of both.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/regcomm_gemm.h"
#include "src/sim/executor.h"
#include "src/util/rng.h"

namespace swdnn {
namespace {

arch::Sw26010Spec small_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

struct GemmCase {
  std::int64_t m, k, n;
};

// Without a printer gtest dumps the raw bytes into the discovered test
// names.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << "m" << c.m << "k" << c.k << "n" << c.n;
}

struct PathResult {
  std::vector<double> out;
  sim::LaunchStats stats;
  std::size_t outstanding = 0;  ///< payloads still out after the launch
};

PathResult run_gemm(const arch::Sw26010Spec& spec, const GemmCase& c,
                    bool fibers, conv::BusPathMode mode, bool accumulate) {
  util::Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(c.k * c.m));
  std::vector<double> b(static_cast<std::size_t>(c.k * c.n));
  PathResult r;
  r.out.resize(static_cast<std::size_t>(c.m * c.n));
  rng.fill_normal(a, 0.0, 1.0);
  rng.fill_normal(b, 0.0, 1.0);
  if (accumulate) {
    // Pre-existing output content exercises the acc-from-out loads of
    // the blocked kernel's accumulate path in the driver writeback.
    for (std::size_t i = 0; i < r.out.size(); ++i) {
      r.out[i] = static_cast<double>(i % 13) * 0.25;
    }
  }
  sim::MeshExecutor exec(spec);
  exec.set_use_fibers(fibers);
  conv::MeshGemmOptions options;
  options.accumulate = accumulate;
  options.bus_mode = mode;
  r.stats = conv::mesh_gemm(exec, a, b, r.out, c.m, c.k, c.n, options);
  r.outstanding = exec.mesh().payload_pool().outstanding();
  return r;
}

void expect_identical(const PathResult& fast, const PathResult& ref) {
  ASSERT_EQ(fast.out.size(), ref.out.size());
  // Bitwise, not approximate: the blocked kernel must preserve the
  // reference kernel's exact addition order per output element.
  EXPECT_EQ(0, std::memcmp(fast.out.data(), ref.out.data(),
                           fast.out.size() * sizeof(double)));
  EXPECT_EQ(fast.stats.max_compute_cycles, ref.stats.max_compute_cycles);
  EXPECT_EQ(fast.stats.total_flops, ref.stats.total_flops);
  EXPECT_EQ(fast.stats.regcomm_messages, ref.stats.regcomm_messages);
  EXPECT_EQ(fast.stats.dma.get_bytes, ref.stats.dma.get_bytes);
  EXPECT_EQ(fast.stats.dma.put_bytes, ref.stats.dma.put_bytes);
  EXPECT_EQ(fast.stats.dma.requests, ref.stats.dma.requests);
  EXPECT_EQ(fast.stats.dma.misaligned_requests,
            ref.stats.dma.misaligned_requests);
  EXPECT_EQ(fast.stats.dma_seconds, ref.stats.dma_seconds);
  EXPECT_EQ(fast.stats.compute_seconds, ref.stats.compute_seconds);
  EXPECT_EQ(fast.stats.failed, ref.stats.failed);
  EXPECT_EQ(fast.stats.persistent_fault, ref.stats.persistent_fault);
  EXPECT_EQ(fast.stats.failure, ref.stats.failure);
  EXPECT_EQ(fast.stats.fault_events, ref.stats.fault_events);
  EXPECT_EQ(fast.stats.dma_retries, ref.stats.dma_retries);
}

class BulkRegcommEquivalence : public ::testing::TestWithParam<GemmCase> {};

TEST_P(BulkRegcommEquivalence, BulkMatchesVec4ReferenceAcrossMeshSizes) {
  const GemmCase c = GetParam();
  for (int dim : {2, 3, 4}) {
    SCOPED_TRACE("mesh " + std::to_string(dim) + "x" + std::to_string(dim));
    const arch::Sw26010Spec spec = small_spec(dim);
    const PathResult fast =
        run_gemm(spec, c, /*fibers=*/true, conv::BusPathMode::kBulkSpan,
                 /*accumulate=*/false);
    const PathResult ref =
        run_gemm(spec, c, /*fibers=*/false,
                 conv::BusPathMode::kVec4Reference, /*accumulate=*/false);
    expect_identical(fast, ref);
  }
}

TEST_P(BulkRegcommEquivalence, AccumulateModeMatches) {
  const GemmCase c = GetParam();
  const arch::Sw26010Spec spec = small_spec(4);
  const PathResult fast =
      run_gemm(spec, c, /*fibers=*/true, conv::BusPathMode::kBulkSpan,
               /*accumulate=*/true);
  const PathResult ref =
      run_gemm(spec, c, /*fibers=*/false, conv::BusPathMode::kVec4Reference,
               /*accumulate=*/true);
  expect_identical(fast, ref);
}

// Shapes chosen so tiles hit: exact Vec4 multiples, ragged Vec4 tails,
// sub-register-block tiles (m or n tile < 4), and tiles where the 4x4
// blocked kernel has both full blocks and tails in each dimension.
INSTANTIATE_TEST_SUITE_P(
    Shapes, BulkRegcommEquivalence,
    ::testing::Values(GemmCase{16, 32, 16},   // everything divides evenly
                      GemmCase{13, 29, 11},   // ragged everywhere
                      GemmCase{5, 7, 3},      // tiles smaller than a block
                      GemmCase{17, 8, 23},    // mixed full blocks + tails
                      GemmCase{1, 64, 1}),    // degenerate rank-1 output
    [](const ::testing::TestParamInfo<GemmCase>& info) {
      return ::testing::PrintToString(info.param);
    });

TEST(BulkRegcommEquivalenceTest, FibersAloneChangeNothing) {
  // Isolate the host-strategy variable: same bus path, fibers vs
  // spawned threads, on both bus paths (the bulk path computes on views
  // of the broadcast payloads; the Vec4 loop parks senders on full
  // transfer buffers). Either way every payload is back in the pool
  // once the launch returns.
  const GemmCase c{13, 29, 11};
  const arch::Sw26010Spec spec = small_spec(4);
  for (const conv::BusPathMode mode :
       {conv::BusPathMode::kBulkSpan, conv::BusPathMode::kVec4Reference}) {
    const PathResult fibers = run_gemm(spec, c, /*fibers=*/true, mode, false);
    const PathResult spawn = run_gemm(spec, c, /*fibers=*/false, mode, false);
    expect_identical(fibers, spawn);
    EXPECT_EQ(fibers.outstanding, 0u);
    EXPECT_EQ(spawn.outstanding, 0u);
  }
}

TEST(BulkRegcommEquivalenceTest, BulkPathComputesOnViewsOnBothStrategies) {
  // The receive tiles start as NaN. The bulk path reads every received
  // tile where the broadcast left it, so they stay NaN on fibers and on
  // spawned threads, and the output still matches the Vec4 reference
  // loop, which unpacks into them.
  const int p = 4, m_tile = 3, k_tile = 5, n_tile = 6;
  util::Rng rng(13);
  std::vector<double> w(static_cast<std::size_t>(p * p * k_tile * m_tile));
  std::vector<double> di(static_cast<std::size_t>(p * p * k_tile * n_tile));
  rng.fill_normal(w, 0.0, 1.0);
  rng.fill_normal(di, 0.0, 1.0);
  const auto run = [&](bool fibers, conv::BusPathMode mode) {
    sim::MeshExecutor exec(small_spec(p));
    exec.set_use_fibers(fibers);
    std::vector<double> out(static_cast<std::size_t>(p * p * m_tile * n_tile));
    std::atomic<int> written{0};
    exec.run([&](sim::CpeContext& ctx) {
      const auto id = static_cast<std::size_t>(ctx.id());
      const std::size_t wn = k_tile * m_tile, dn = k_tile * n_tile;
      auto w_local = ctx.ldm().alloc_doubles(wn);
      auto w_recv = ctx.ldm().alloc_doubles(wn);
      auto di_local = ctx.ldm().alloc_doubles(dn);
      auto di_recv = ctx.ldm().alloc_doubles(dn);
      auto do_local = ctx.ldm().alloc_doubles(m_tile * n_tile);
      std::copy_n(w.begin() + id * wn, wn, w_local.begin());
      std::copy_n(di.begin() + id * dn, dn, di_local.begin());
      std::fill(w_recv.begin(), w_recv.end(), std::nan(""));
      std::fill(di_recv.begin(), di_recv.end(), std::nan(""));
      std::fill(do_local.begin(), do_local.end(), 0.0);
      conv::mesh_gemm_accumulate(ctx, w_local, di_local, do_local, w_recv,
                                 di_recv, m_tile, k_tile, n_tile, mode);
      const auto is_nan = [](double v) { return std::isnan(v); };
      if (!std::all_of(w_recv.begin(), w_recv.end(), is_nan) ||
          !std::all_of(di_recv.begin(), di_recv.end(), is_nan)) {
        written.fetch_add(1);
      }
      const auto offset = static_cast<std::ptrdiff_t>(id * do_local.size());
      std::copy(do_local.begin(), do_local.end(), out.begin() + offset);
    });
    EXPECT_EQ(exec.mesh().payload_pool().outstanding(), 0u);
    return std::make_pair(out, written.load());
  };
  const auto [fiber_out, fiber_written] =
      run(/*fibers=*/true, conv::BusPathMode::kBulkSpan);
  const auto [spawn_out, spawn_written] =
      run(/*fibers=*/false, conv::BusPathMode::kBulkSpan);
  const auto [ref_out, ref_written] =
      run(/*fibers=*/false, conv::BusPathMode::kVec4Reference);
  EXPECT_EQ(fiber_written, 0);
  EXPECT_EQ(spawn_written, 0);
  EXPECT_EQ(ref_written, p * p);  // the reference loop unpacks into them
  EXPECT_EQ(0, std::memcmp(fiber_out.data(), ref_out.data(),
                           ref_out.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(spawn_out.data(), ref_out.data(),
                           ref_out.size() * sizeof(double)));
}

TEST(BulkRegcommEquivalenceTest, LaunchesFromTwoHostThreadsInTurnMatch) {
  // One executor launched in turn from two host threads, as the task
  // pool's lanes do with a shared handle: the fibers run on whichever
  // thread launches, and the results must not depend on which.
  const GemmCase c{17, 8, 23};
  const arch::Sw26010Spec spec = small_spec(4);
  util::Rng rng(7);
  std::vector<double> a(static_cast<std::size_t>(c.k * c.m));
  std::vector<double> b(static_cast<std::size_t>(c.k * c.n));
  rng.fill_normal(a, 0.0, 1.0);
  rng.fill_normal(b, 0.0, 1.0);
  sim::MeshExecutor exec(spec);
  std::vector<PathResult> results(4);
  for (PathResult& r : results) {
    r.out.resize(static_cast<std::size_t>(c.m * c.n));
  }
  // Two launches from each thread; joining the first thread before the
  // second starts serializes the launches, as the executor requires.
  for (std::size_t t = 0; t < 2; ++t) {
    std::thread([&, t] {
      for (std::size_t i = 2 * t; i < 2 * t + 2; ++i) {
        PathResult& r = results[i];
        r.stats = conv::mesh_gemm(exec, a, b, r.out, c.m, c.k, c.n);
      }
    }).join();
  }
  // run_gemm draws the same operands from the same seed.
  const PathResult ref = run_gemm(spec, c, /*fibers=*/false,
                                  conv::BusPathMode::kBulkSpan, false);
  for (const PathResult& r : results) expect_identical(r, ref);
}

TEST(BulkRegcommEquivalenceTest, RepeatedLaunchesOnOneExecutorAreIdentical) {
  // The launch-boundary reset must leave no residue: the same GEMM on
  // the same executor must report identical stats every time.
  const GemmCase c{16, 32, 16};
  util::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(c.k * c.m));
  std::vector<double> b(static_cast<std::size_t>(c.k * c.n));
  rng.fill_normal(a, 0.0, 1.0);
  rng.fill_normal(b, 0.0, 1.0);
  sim::MeshExecutor exec(small_spec(4));
  std::vector<double> first(static_cast<std::size_t>(c.m * c.n));
  const sim::LaunchStats stats0 =
      conv::mesh_gemm(exec, a, b, first, c.m, c.k, c.n);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> out(static_cast<std::size_t>(c.m * c.n));
    const sim::LaunchStats stats =
        conv::mesh_gemm(exec, a, b, out, c.m, c.k, c.n);
    EXPECT_EQ(0, std::memcmp(first.data(), out.data(),
                             out.size() * sizeof(double)));
    EXPECT_EQ(stats0.max_compute_cycles, stats.max_compute_cycles);
    EXPECT_EQ(stats0.total_flops, stats.total_flops);
    EXPECT_EQ(stats0.regcomm_messages, stats.regcomm_messages);
    EXPECT_EQ(stats0.dma.get_bytes, stats.dma.get_bytes);
    EXPECT_EQ(stats0.dma.put_bytes, stats.dma.put_bytes);
    EXPECT_EQ(stats0.dma.requests, stats.dma.requests);
  }
}

TEST(BulkRegcommEquivalenceTest, LocalKernelsBitwiseIdenticalStandalone) {
  // Direct microkernel comparison without the mesh: odd tile sizes so
  // full 4x4 blocks, m tails, and n tails all execute.
  const int m = 11, k = 17, n = 9;
  util::Rng rng(3);
  std::vector<double> w(static_cast<std::size_t>(k * m));
  std::vector<double> di(static_cast<std::size_t>(k * n));
  rng.fill_normal(w, 0.0, 1.0);
  rng.fill_normal(di, 0.0, 1.0);
  std::vector<double> out_blocked(static_cast<std::size_t>(m * n), 0.5);
  std::vector<double> out_ref = out_blocked;

  sim::MeshExecutor exec(small_spec(2));
  exec.run([&](sim::CpeContext& ctx) {
    if (ctx.id() != 0) return;
    conv::local_gemm_accumulate(ctx, w, di, out_blocked, m, k, n);
    conv::local_gemm_accumulate_ref(ctx, w, di, out_ref, m, k, n);
  });
  EXPECT_EQ(0, std::memcmp(out_blocked.data(), out_ref.data(),
                           out_ref.size() * sizeof(double)));
}

// Every instantiation of the register tile against the naive oracle,
// over tile shapes that take each of its paths: m below, at and past the
// 4-row block with every remainder, k from a single term up, and n
// through the two-vector blocks, the one-vector block and the scalar
// columns of both vector widths. `out` starts nonzero, and every operand
// holds signed zeros, so a kernel that started an accumulator at +0 or
// rounded a multiply-add once would differ in some bit. Each shape also
// runs at leading dimensions past the tile (lw > m, lb = lc > n), as the
// host GEMM runs it on a block of larger matrices; the padding between
// rows must come back untouched.
struct IsaCase {
  conv::LocalGemmIsa isa;
  const char* label;
};

void PrintTo(const IsaCase& c, std::ostream* os) { *os << c.label; }

class LocalGemmTile : public ::testing::TestWithParam<IsaCase> {};

void seed_with_signed_zeros(std::vector<double>& v, util::Rng& rng,
                            std::size_t period) {
  rng.fill_normal(v, 0.0, 1.0);
  for (std::size_t i = 0; i < v.size(); i += period) v[i] = -0.0;
  for (std::size_t i = 1; i < v.size(); i += period) v[i] = 0.0;
}

TEST_P(LocalGemmTile, SweepIsBitwiseTheReference) {
  const conv::LocalGemmIsa isa = GetParam().isa;
  if (!conv::local_gemm_isa_supported(isa)) {
    GTEST_SKIP() << "this CPU does not support AVX2";
  }
  sim::MeshExecutor exec(small_spec(1));
  util::Rng rng(29);
  for (int m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13}) {
    for (int k : {1, 3, 8, 17}) {
      for (int n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 100}) {
        SCOPED_TRACE(::testing::Message()
                     << "m" << m << "k" << k << "n" << n);
        std::vector<double> w(static_cast<std::size_t>(k * m));
        std::vector<double> di(static_cast<std::size_t>(k * n));
        std::vector<double> out(static_cast<std::size_t>(m * n));
        seed_with_signed_zeros(w, rng, 5);
        seed_with_signed_zeros(di, rng, 7);
        seed_with_signed_zeros(out, rng, 3);
        std::vector<double> out_ref = out;
        const sim::LaunchStats tile = exec.run([&](sim::CpeContext& ctx) {
          conv::local_gemm_accumulate(ctx, w, di, out, m, k, n, isa);
        });
        const sim::LaunchStats ref = exec.run([&](sim::CpeContext& ctx) {
          conv::local_gemm_accumulate_ref(ctx, w, di, out_ref, m, k, n);
        });
        ASSERT_EQ(0, std::memcmp(out.data(), out_ref.data(),
                                 out.size() * sizeof(double)));
        ASSERT_EQ(tile.total_flops, ref.total_flops);
        ASSERT_EQ(tile.max_compute_cycles, ref.max_compute_cycles);

        const int lw = m + 3, ld = n + 5;
        std::vector<double> w_wide(static_cast<std::size_t>(k * lw));
        std::vector<double> di_wide(static_cast<std::size_t>(k * ld));
        std::vector<double> out_wide(static_cast<std::size_t>(m * ld));
        seed_with_signed_zeros(w_wide, rng, 5);
        seed_with_signed_zeros(di_wide, rng, 7);
        seed_with_signed_zeros(out_wide, rng, 3);
        std::vector<double> wide_ref = out_wide;
        for (int p = 0; p < k; ++p)
          for (int i = 0; i < m; ++i)
            for (int j = 0; j < n; ++j)
              wide_ref[static_cast<std::size_t>(i * ld + j)] +=
                  w_wide[static_cast<std::size_t>(p * lw + i)] *
                  di_wide[static_cast<std::size_t>(p * ld + j)];
        conv::gemm_tile(w_wide.data(), lw, di_wide.data(), ld,
                        out_wide.data(), ld, m, k, n, isa);
        ASSERT_EQ(0, std::memcmp(out_wide.data(), wide_ref.data(),
                                 out_wide.size() * sizeof(double)));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isa, LocalGemmTile,
    ::testing::Values(IsaCase{conv::LocalGemmIsa::kVec2, "Vec2"},
                      IsaCase{conv::LocalGemmIsa::kAvx2, "Avx2"}),
    [](const ::testing::TestParamInfo<IsaCase>& info) {
      return ::testing::PrintToString(info.param);
    });

TEST(LocalGemmTileIsa, ProcessRunsTheWidestSupportedInstantiation) {
  EXPECT_TRUE(conv::local_gemm_isa_supported(conv::LocalGemmIsa::kVec2));
  EXPECT_EQ(conv::local_gemm_isa(),
            conv::local_gemm_isa_supported(conv::LocalGemmIsa::kAvx2)
                ? conv::LocalGemmIsa::kAvx2
                : conv::LocalGemmIsa::kVec2);
}

}  // namespace
}  // namespace swdnn
