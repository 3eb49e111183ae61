#include "src/conv/mesh_gemm_driver.h"

#include <algorithm>
#include <stdexcept>

#include "src/conv/regcomm_gemm.h"

namespace swdnn::conv {

namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

void check_dimensions(std::int64_t m, std::int64_t k, std::int64_t n) {
  if (m <= 0 || k <= 0 || n <= 0) {
    throw std::invalid_argument("mesh_gemm: dimensions must be positive");
  }
}

/// Contraction rows each CPE loads per pass: a pass covers P of these
/// row blocks, one per mesh column (A) or mesh row (B).
std::int64_t rows_per_pass(const arch::Sw26010Spec& spec, std::int64_t m,
                           std::int64_t k, std::int64_t n,
                           const MeshGemmOptions& options) {
  const std::int64_t k_chunk =
      options.k_chunk > 0 ? std::min(options.k_chunk, k)
                          : mesh_gemm_default_k_chunk(spec, m, k, n);
  return ceil_div(k_chunk, spec.mesh_rows);
}

/// Calls f(tiles, width) for each tile class of a ceil-divided axis:
/// the full tiles, then the ragged remainder. The tiles past the
/// extent are empty and issue nothing.
template <typename F>
void for_each_tile_class(std::int64_t extent, std::int64_t tile, F&& f) {
  if (extent / tile > 0) f(extent / tile, tile);
  if (extent % tile > 0) f(std::int64_t{1}, extent % tile);
}

}  // namespace

std::int64_t mesh_gemm_default_k_chunk(const arch::Sw26010Spec& spec,
                                       std::int64_t m, std::int64_t k,
                                       std::int64_t n) {
  const std::int64_t p = spec.mesh_rows;
  const std::int64_t m_t = ceil_div(m, p);
  const std::int64_t n_t = ceil_div(n, p);
  const std::int64_t budget_doubles =
      static_cast<std::int64_t>(spec.ldm_bytes - spec.ldm_reserved_bytes) / 8;
  // Footprint in doubles: A tile + recv (2*k_t*m_t), B tile + recv
  // (2*k_t*n_t), output tile (m_t*n_t), writeback staging (n_t).
  const std::int64_t fixed = m_t * n_t + n_t;
  if (fixed >= budget_doubles) {
    throw std::invalid_argument(
        "mesh_gemm: output tile alone overflows LDM; reduce m or n");
  }
  const std::int64_t k_t =
      std::max<std::int64_t>(1, (budget_doubles - fixed) /
                                    (2 * (m_t + n_t)));
  return std::min(k, k_t * p);
}

sim::LaunchStats mesh_gemm(sim::MeshExecutor& exec,
                           std::span<const double> a,
                           std::span<const double> b, std::span<double> out,
                           std::int64_t m, std::int64_t k, std::int64_t n,
                           const MeshGemmOptions& options) {
  check_dimensions(m, k, n);
  if (static_cast<std::int64_t>(a.size()) != k * m ||
      static_cast<std::int64_t>(b.size()) != k * n ||
      static_cast<std::int64_t>(out.size()) != m * n) {
    throw std::invalid_argument("mesh_gemm: operand size mismatch");
  }
  const auto& spec = exec.spec();
  const std::int64_t p = spec.mesh_rows;
  const std::int64_t m_t = ceil_div(m, p);
  const std::int64_t n_t = ceil_div(n, p);
  const std::int64_t k_t = rows_per_pass(spec, m, k, n, options);
  const bool accumulate = options.accumulate;
  const BusPathMode bus_mode = options.bus_mode;

  auto kernel = [&a, &b, &out, m, k, n, m_t, n_t, k_t, p, accumulate,
                 bus_mode](sim::CpeContext& ctx) {
    const std::int64_t i = ctx.row();
    const std::int64_t j = ctx.col();
    auto a_tile = ctx.ldm().alloc_doubles(static_cast<std::size_t>(k_t * m_t));
    auto a_recv = ctx.ldm().alloc_doubles(static_cast<std::size_t>(k_t * m_t));
    auto b_tile = ctx.ldm().alloc_doubles(static_cast<std::size_t>(k_t * n_t));
    auto b_recv = ctx.ldm().alloc_doubles(static_cast<std::size_t>(k_t * n_t));
    auto out_tile =
        ctx.ldm().alloc_doubles(static_cast<std::size_t>(m_t * n_t));
    auto staging = ctx.ldm().alloc_doubles(static_cast<std::size_t>(n_t));
    std::fill(out_tile.begin(), out_tile.end(), 0.0);

    // Loads rows [row0, row0+rows) x columns [col0, col0+width) of a
    // [k x cols] matrix into a dense tile, zero-padding out-of-bounds.
    auto load_tile = [&ctx, k](std::span<const double> src,
                               std::span<double> dst, std::int64_t cols,
                               std::int64_t row0, std::int64_t rows,
                               std::int64_t col0, std::int64_t width) {
      for (std::int64_t r = 0; r < rows; ++r) {
        std::span<double> dst_row =
            dst.subspan(static_cast<std::size_t>(r * width),
                        static_cast<std::size_t>(width));
        const std::int64_t row = row0 + r;
        // Both the row (contraction) and the column window can fall
        // entirely out of bounds on a mesh larger than the matrix.
        const std::int64_t valid =
            row < k ? std::max<std::int64_t>(
                          0, std::min(width, cols - col0))
                    : 0;
        if (valid > 0) {
          ctx.dma_get({src.data() + row * cols + col0,
                       static_cast<std::size_t>(valid)},
                      dst_row.first(static_cast<std::size_t>(valid)));
        }
        std::fill(dst_row.begin() + valid, dst_row.end(), 0.0);
      }
    };

    // A pass loads P row blocks of k_t rows, so it advances P * k_t
    // rows (more than the requested chunk when the chunk is not a
    // multiple of P).
    for (std::int64_t k0 = 0; k0 < k; k0 += p * k_t) {
      // A: contraction block j (this CPE's mesh column), m block i;
      // B: contraction block i (mesh row), n block j — the Fig. 3
      // distribution, nothing duplicated across the mesh.
      load_tile(a, a_tile, m, k0 + j * k_t, k_t, i * m_t, m_t);
      load_tile(b, b_tile, n, k0 + i * k_t, k_t, j * n_t, n_t);
      mesh_gemm_accumulate(ctx, a_tile, b_tile, out_tile, a_recv, b_recv,
                           static_cast<int>(m_t), static_cast<int>(k_t),
                           static_cast<int>(n_t), bus_mode);
    }

    // Write back the in-bounds part of the tile; on meshes larger than
    // the matrix some CPEs own nothing.
    const std::int64_t valid_m =
        std::max<std::int64_t>(0, std::min(m_t, m - i * m_t));
    const std::int64_t valid_n =
        std::max<std::int64_t>(0, std::min(n_t, n - j * n_t));
    if (valid_n == 0) return;
    for (std::int64_t ml = 0; ml < valid_m; ++ml) {
      std::span<double> dst{out.data() + (i * m_t + ml) * n + j * n_t,
                            static_cast<std::size_t>(valid_n)};
      std::span<double> src =
          out_tile.subspan(static_cast<std::size_t>(ml * n_t),
                           static_cast<std::size_t>(valid_n));
      if (accumulate) {
        std::span<double> stage =
            staging.first(static_cast<std::size_t>(valid_n));
        ctx.dma_get(dst, stage);
        for (std::int64_t c = 0; c < valid_n; ++c) stage[c] += src[c];
        ctx.dma_put(stage, dst);
      } else {
        ctx.dma_put(src, dst);
      }
    }
  };
  return exec.run(kernel);
}

sim::LaunchStats predict_mesh_gemm(const arch::Sw26010Spec& spec,
                                   std::int64_t m, std::int64_t k,
                                   std::int64_t n,
                                   const MeshGemmOptions& options) {
  check_dimensions(m, k, n);
  const std::int64_t p = spec.mesh_rows;
  const std::int64_t m_t = ceil_div(m, p);
  const std::int64_t n_t = ceil_div(n, p);
  const std::int64_t k_t = rows_per_pass(spec, m, k, n, options);
  const auto count = [](std::int64_t v) {
    return static_cast<std::uint64_t>(v);
  };

  sim::LaunchTally tally;
  tally_mesh_gemm_accumulate(tally, spec, count(ceil_div(k, p * k_t)), m_t,
                             k_t, n_t);
  // Every contraction row below k is loaded once per A and B column
  // block that holds in-bounds columns; rows past k load nothing.
  const auto load = [&](std::int64_t tiles, std::int64_t width) {
    tally.add_dma(spec, count(tiles * k), count(width * 8), width * 8,
                  perf::DmaDirection::kGet);
  };
  for_each_tile_class(m, m_t, load);
  for_each_tile_class(n, n_t, load);
  // Write-back: each in-bounds output row of each n block, read first
  // when accumulating.
  for_each_tile_class(n, n_t, [&](std::int64_t tiles, std::int64_t width) {
    const std::uint64_t rows = count(tiles * m);
    if (options.accumulate) {
      tally.add_dma(spec, rows, count(width * 8), width * 8,
                    perf::DmaDirection::kGet);
    }
    tally.add_dma(spec, rows, count(width * 8), width * 8,
                  perf::DmaDirection::kPut);
  });
  return tally.stats(spec);
}

}  // namespace swdnn::conv
