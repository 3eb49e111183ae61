#pragma once
// Host GEMM kernels (the substrate under the im2col baseline and the
// fully-connected layer) and the SIMD register tile they share with the
// simulator's mesh local GEMM. Plain row-major C += A*B, in a naive and
// a cache-blocked variant kept as oracles, and a packed, row-panel-
// parallel one that runs every block on the register tile.

#include <cstdint>
#include <span>

namespace swdnn::conv {

/// C[m x n] += A[m x k] * B[k x n], all row-major, naive loop order.
void gemm_naive(std::int64_t m, std::int64_t n, std::int64_t k,
                std::span<const double> a, std::span<const double> b,
                std::span<double> c);

/// Same contract, tiled for cache with an i-k-j loop order. Non-positive
/// `tile` values are clamped to the default (they used to hang the tile
/// loops).
void gemm_blocked(std::int64_t m, std::int64_t n, std::int64_t k,
                  std::span<const double> a, std::span<const double> b,
                  std::span<double> c, std::int64_t tile = 64);

/// The instruction sets the register tile is built for.
enum class LocalGemmIsa {
  kVec2,  ///< 2-lane double vectors, any target (SSE2 on x86-64)
  kAvx2,  ///< 4-lane double vectors, compiled for AVX2 (x86 only)
};

/// Whether this CPU can run `isa`.
bool local_gemm_isa_supported(LocalGemmIsa isa);

/// The widest instantiation this CPU supports, picked once per process.
LocalGemmIsa local_gemm_isa();

/// The register tile (paper Fig. 5, Eq. 5):
///   c[i*lc + j] += sum_p w[p*lw + i] * b[p*lb + j]
/// for i < m, j < n, p < k, with W in [k][m] order. 4 output rows x 2
/// vectors along n, then 4 rows x 1 vector, then scalar columns, and
/// the same for the last m % 4 rows one at a time; vectors hold 2
/// doubles (kVec2) or 4 (kAvx2). The k loop is innermost, and each
/// c element receives c + w[0]*b[0] + w[1]*b[1] + ... in ascending p,
/// each term a rounded multiply followed by a rounded add: no FMA (the
/// library builds with -ffp-contract=off and the AVX2 instantiation's
/// target excludes FMA), so every instantiation is bitwise the naive
/// loop. `isa` must be supported by the CPU; tests name it to run each
/// instantiation.
void gemm_tile(const double* w, std::int64_t lw, const double* b,
               std::int64_t lb, double* c, std::int64_t lc, std::int64_t m,
               std::int64_t k, std::int64_t n,
               LocalGemmIsa isa = local_gemm_isa());

/// Packed, cache-blocked, row-panel-parallel GEMM on the host task
/// pool. C is split into row panels of `tile` rows, each produced by
/// exactly one worker; a worker packs its A panel per k-tile into the
/// tile's [k][i] order and runs gemm_tile on each (k-tile x n-tile)
/// block, reading B and C in place. Each C element accumulates its k
/// products one at a time in ascending-k order — the same order as
/// gemm_naive and gemm_blocked — so the result is bitwise-identical to
/// the serial kernels at any thread count and either ISA. This is the
/// host kernel under the im2col lowering, the fully-connected layer and
/// the API's degradation ladder.
void gemm_packed_parallel(std::int64_t m, std::int64_t n, std::int64_t k,
                          std::span<const double> a,
                          std::span<const double> b, std::span<double> c,
                          std::int64_t tile = 64,
                          LocalGemmIsa isa = local_gemm_isa());

}  // namespace swdnn::conv
