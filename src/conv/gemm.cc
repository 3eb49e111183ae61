#include "src/conv/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "src/runtime/task_pool.h"

namespace swdnn::conv {

void gemm_naive(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const double> a, std::span<const double> b,
                std::span<double> c) {
  assert(static_cast<std::int64_t>(a.size()) == m * k);
  assert(static_cast<std::int64_t>(b.size()) == k * n);
  assert(static_cast<std::int64_t>(c.size()) == m * n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::int64_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * b[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  std::span<const double> a, std::span<const double> b,
                  std::span<double> c, std::int64_t tile) {
  assert(static_cast<std::int64_t>(a.size()) == m * k);
  assert(static_cast<std::int64_t>(b.size()) == k * n);
  assert(static_cast<std::int64_t>(c.size()) == m * n);
  if (tile <= 0) tile = 64;  // a zero/negative tile stalled the loops
  for (std::int64_t i0 = 0; i0 < m; i0 += tile) {
    const std::int64_t i1 = std::min(i0 + tile, m);
    for (std::int64_t p0 = 0; p0 < k; p0 += tile) {
      const std::int64_t p1 = std::min(p0 + tile, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += tile) {
        const std::int64_t j1 = std::min(j0 + tile, n);
        for (std::int64_t i = i0; i < i1; ++i) {
          for (std::int64_t p = p0; p < p1; ++p) {
            const double av = a[i * k + p];
            const double* brow = &b[p * n];
            double* crow = &c[i * n];
            for (std::int64_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

namespace {

// The register tile (see gemm_tile's header comment). V is a GCC vector
// of 2 or 4 doubles; a scalar times a vector broadcasts the scalar.
// Operands are only 8-byte aligned, so vectors load and store through
// memcpy. Everything is always_inline: a body not inlined into the
// target("avx2") entry point is compiled for the baseline ISA, with its
// 4-lane vectors split into 2-lane halves.
typedef double F64x2 __attribute__((vector_size(16)));
typedef double F64x4 __attribute__((vector_size(32)));

// Out-parameter, not a return value: a 32-byte vector returned from a
// function compiled for the baseline ISA would change its ABI.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// R output rows, w at their first W column and c at their first C row:
// column blocks of two vectors, then one vector, then single columns.
// The scalar columns keep R independent accumulators; n = 1 tiles take
// only them.
template <typename V, int R>
[[gnu::always_inline]] inline void tile_rows(const double* w, std::int64_t lw,
                                             const double* b, std::int64_t lb,
                                             double* c, std::int64_t lc,
                                             std::int64_t k, std::int64_t n) {
  constexpr int kLanes = sizeof(V) / sizeof(double);
  std::int64_t j = 0;
  for (; j + 2 * kLanes <= n; j += 2 * kLanes) {
    V acc[R][2];
    for (int i = 0; i < R; ++i) {
      load(acc[i][0], c + i * lc + j);
      load(acc[i][1], c + i * lc + j + kLanes);
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const double* bp = b + p * lb + j;
      V b0, b1;
      load(b0, bp);
      load(b1, bp + kLanes);
      for (int i = 0; i < R; ++i) {
        const double wv = w[p * lw + i];
        acc[i][0] += wv * b0;
        acc[i][1] += wv * b1;
      }
    }
    for (int i = 0; i < R; ++i) {
      store(c + i * lc + j, acc[i][0]);
      store(c + i * lc + j + kLanes, acc[i][1]);
    }
  }
  if (j + kLanes <= n) {
    V acc[R];
    for (int i = 0; i < R; ++i) load(acc[i], c + i * lc + j);
    for (std::int64_t p = 0; p < k; ++p) {
      V bv;
      load(bv, b + p * lb + j);
      for (int i = 0; i < R; ++i) acc[i] += w[p * lw + i] * bv;
    }
    for (int i = 0; i < R; ++i) store(c + i * lc + j, acc[i]);
    j += kLanes;
  }
  for (; j < n; ++j) {
    double acc[R];
    for (int i = 0; i < R; ++i) acc[i] = c[i * lc + j];
    for (std::int64_t p = 0; p < k; ++p) {
      const double bv = b[p * lb + j];
      for (int i = 0; i < R; ++i) acc[i] += w[p * lw + i] * bv;
    }
    for (int i = 0; i < R; ++i) c[i * lc + j] = acc[i];
  }
}

// Row blocks of four, then single rows.
template <typename V>
[[gnu::always_inline]] inline void tile_gemm(const double* w, std::int64_t lw,
                                             const double* b, std::int64_t lb,
                                             double* c, std::int64_t lc,
                                             std::int64_t m, std::int64_t k,
                                             std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    tile_rows<V, 4>(w + i, lw, b, lb, c + i * lc, lc, k, n);
  }
  for (; i < m; ++i) tile_rows<V, 1>(w + i, lw, b, lb, c + i * lc, lc, k, n);
}

using TileGemm = void (*)(const double*, std::int64_t, const double*,
                          std::int64_t, double*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t);

void tile_gemm_vec2(const double* w, std::int64_t lw, const double* b,
                    std::int64_t lb, double* c, std::int64_t lc,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  tile_gemm<F64x2>(w, lw, b, lb, c, lc, m, k, n);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void tile_gemm_avx2(const double* w, std::int64_t lw,
                                            const double* b, std::int64_t lb,
                                            double* c, std::int64_t lc,
                                            std::int64_t m, std::int64_t k,
                                            std::int64_t n) {
  tile_gemm<F64x4>(w, lw, b, lb, c, lc, m, k, n);
}
#endif

TileGemm tile_gemm_for(LocalGemmIsa isa) {
#if defined(__x86_64__) || defined(__i386__)
  return isa == LocalGemmIsa::kAvx2 ? tile_gemm_avx2 : tile_gemm_vec2;
#else
  (void)isa;
  return tile_gemm_vec2;
#endif
}

}  // namespace

bool local_gemm_isa_supported(LocalGemmIsa isa) {
  if (isa == LocalGemmIsa::kVec2) return true;
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

LocalGemmIsa local_gemm_isa() {
  static const LocalGemmIsa isa = local_gemm_isa_supported(LocalGemmIsa::kAvx2)
                                      ? LocalGemmIsa::kAvx2
                                      : LocalGemmIsa::kVec2;
  return isa;
}

void gemm_tile(const double* w, std::int64_t lw, const double* b,
               std::int64_t lb, double* c, std::int64_t lc, std::int64_t m,
               std::int64_t k, std::int64_t n, LocalGemmIsa isa) {
  tile_gemm_for(isa)(w, lw, b, lb, c, lc, m, k, n);
}

void gemm_packed_parallel(std::int64_t m, std::int64_t n, std::int64_t k,
                          std::span<const double> a,
                          std::span<const double> b, std::span<double> c,
                          std::int64_t tile, LocalGemmIsa isa) {
  assert(static_cast<std::int64_t>(a.size()) == m * k);
  assert(static_cast<std::int64_t>(b.size()) == k * n);
  assert(static_cast<std::int64_t>(c.size()) == m * n);
  if (tile <= 0) tile = 64;
  const TileGemm run_tile = tile_gemm_for(isa);
  // Row panels of C, one block of `tile` rows per chunk: every C row is
  // written by exactly one worker, and each element accumulates its k
  // terms in ascending order (k-tiles ascending, then the tile's
  // ascending p) — bitwise gemm_naive.
  runtime::parallel_for(0, m, tile, [&](std::int64_t i0, std::int64_t i1) {
    const std::int64_t rows = i1 - i0;
    // The A row panel of one k-tile in the tile's [p][i] order.
    std::vector<double> apack(
        static_cast<std::size_t>(rows * std::min(tile, k)));
    for (std::int64_t p0 = 0; p0 < k; p0 += tile) {
      const std::int64_t depth = std::min(tile, k - p0);
      for (std::int64_t i = 0; i < rows; ++i) {
        const double* arow = a.data() + (i0 + i) * k + p0;
        for (std::int64_t p = 0; p < depth; ++p) apack[p * rows + i] = arow[p];
      }
      for (std::int64_t j0 = 0; j0 < n; j0 += tile) {
        run_tile(apack.data(), rows, b.data() + p0 * n + j0, n,
                 c.data() + i0 * n + j0, n, rows, depth,
                 std::min(tile, n - j0));
      }
    }
  });
}

}  // namespace swdnn::conv
