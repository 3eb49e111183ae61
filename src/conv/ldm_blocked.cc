#include "src/conv/ldm_blocked.h"

#include <stdexcept>
#include <string>
#include <vector>

#include "src/conv/regcomm_gemm.h"
#include "src/tensor/layout.h"

namespace swdnn::conv {

namespace {

std::int64_t resolve_ro_end(const ConvShape& shape, std::int64_t ro_end) {
  return ro_end < 0 ? shape.ro() : ro_end;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw MeshMappingError("mesh compatibility: " + what);
}

}  // namespace

void check_mesh_compatibility(const ConvShape& shape,
                              const perf::ConvPlan& plan, int mesh_dim) {
  const std::int64_t p = mesh_dim;
  require(shape.stride_r == 1 && shape.stride_c == 1,
          "mesh kernels implement the paper's stride-1 convolutions");
  require(plan.block_ni == 0 || plan.block_ni == shape.ni,
          "level-1 kernels contract the full Ni (no block_ni)");

  if (plan.kind == perf::PlanKind::kFilterGrained) {
    // The filter-grained mapping ceil-divides and zero-pads its tiles,
    // so no divisibility rules apply — only the LDM budget can refuse.
    // The budget is evaluated on the default machine with this mesh
    // dimension (the repo's specs vary only in mesh size).
    arch::Sw26010Spec spec = arch::default_spec();
    spec.mesh_rows = mesh_dim;
    spec.mesh_cols = mesh_dim;
    require(perf::filter_grained_k_chunk(shape, plan, spec) > 0,
            "filter-grained tile set overflows LDM");
    return;
  }

  require(shape.ni % p == 0, "Ni must divide by the mesh dimension");
  require(shape.no % p == 0, "No must divide by the mesh dimension");
  require(plan.block_co > 0 && shape.co() % plan.block_co == 0,
          "Co must divide by block_co");
  switch (plan.kind) {
    case perf::PlanKind::kImageSizeAware:
      // Each CPE owns whole 256-bit batch quads of the Section V-C
      // layout.
      require(plan.block_b > 0 && plan.block_b % (4 * p) == 0,
              "block_b must be a multiple of 4 x the mesh dimension");
      require(shape.batch % plan.block_b == 0,
              "batch must divide by block_b");
      break;
    case perf::PlanKind::kBatchSizeAware:
      require(shape.batch % p == 0,
              "batch must divide by the mesh dimension");
      break;
    case perf::PlanKind::kFilterGrained:
      break;  // handled above
  }
}

sim::LaunchStats run_image_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin,
                                      std::int64_t ro_end) {
  const int p = exec.spec().mesh_rows;
  check_mesh_compatibility(shape, plan, p);
  ro_end = resolve_ro_end(shape, ro_end);

  const std::int64_t ni_p = shape.ni / p;
  const std::int64_t no_p = shape.no / p;
  const std::int64_t bb = plan.block_b;
  const std::int64_t bb_p = bb / p;
  const std::int64_t quads_p = bb_p / 4;  // batch quads per CPE
  const std::int64_t bco = plan.block_co;
  const std::int64_t run = bco * 4;       // one (C, lane) run of a quad
  const std::int64_t s_tile = bco * bb_p;
  const std::int64_t big_no = shape.no;

  // Host staging into the Section V-C layout over the rows this launch
  // touches: input rows [ro_begin, ro_end + Kr - 1), output rows
  // [ro_begin, ro_end), each [B/4][N][rows][C][4].
  const std::int64_t in_rows = ro_end - ro_begin + shape.kr - 1;
  const std::int64_t out_rows = ro_end - ro_begin;
  std::vector<double> in_vec(
      static_cast<std::size_t>(shape.batch * shape.ni * in_rows * shape.ci));
  std::vector<double> out_vec(
      static_cast<std::size_t>(shape.batch * shape.no * out_rows * shape.co()));
  tensor::pack_image_size_aware_rows(input, ro_begin, ro_begin + in_rows,
                                     in_vec);

  auto kernel = [&, ro_begin, ro_end](sim::CpeContext& ctx) {
    const std::int64_t i = ctx.row();  // Di channel block / Do channel block
    const std::int64_t j = ctx.col();  // W channel block / batch block

    auto w_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * no_p));
    auto w_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * no_p));
    auto di_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * s_tile));
    auto di_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * s_tile));
    auto do_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(no_p * s_tile));

    // The GEMM's n axis runs in the layout's [quad][column][lane] order,
    // so each DMA run lands in (and leaves) its tile unshuffled.
    auto tile_run = [&](std::span<double> tile, std::int64_t channel,
                        std::int64_t q) {
      return tile.subspan(static_cast<std::size_t>(channel * s_tile + q * run),
                          static_cast<std::size_t>(run));
    };
    for (std::int64_t b0 = 0; b0 < shape.batch; b0 += bb) {
      const std::int64_t q0 = (b0 + j * bb_p) / 4;  // first owned quad
      for (std::int64_t ro = ro_begin; ro < ro_end; ++ro) {
        for (std::int64_t c0 = 0; c0 < shape.co(); c0 += bco) {
          std::fill(do_tile.begin(), do_tile.end(), 0.0);
          for (std::int64_t kr = 0; kr < shape.kr; ++kr) {
            for (std::int64_t kc = 0; kc < shape.kc; ++kc) {
              // Filter slice (kr, kc): this CPE's input-channel block j
              // and output-channel block i, laid out [ni_local][no_local].
              ctx.dma_get_strided(
                  &filter.data()[filter.offset(
                      {kr, kc, j * ni_p, i * no_p})],
                  ni_p, no_p, big_no, w_tile);
              // Input: per (quad, channel) one contiguous bCo*4 run
              // along (C, lane) — the Section V-C layout payoff.
              const std::int64_t r = ro - ro_begin + kr;
              for (std::int64_t q = 0; q < quads_p; ++q) {
                for (std::int64_t nl = 0; nl < ni_p; ++nl) {
                  const std::int64_t n = i * ni_p + nl;
                  const double* src =
                      &in_vec[static_cast<std::size_t>(
                          (((q0 + q) * shape.ni + n) * in_rows + r) *
                              shape.ci * 4 +
                          (c0 + kc) * 4)];
                  ctx.dma_get({src, static_cast<std::size_t>(run)},
                              tile_run(di_tile, nl, q));
                }
              }
              mesh_gemm_accumulate(ctx, w_tile, di_tile, do_tile, w_recv,
                                   di_recv, static_cast<int>(no_p),
                                   static_cast<int>(ni_p),
                                   static_cast<int>(s_tile));
            }
          }
          // Write back: output-channel block i, batch block j.
          for (std::int64_t q = 0; q < quads_p; ++q) {
            for (std::int64_t nl = 0; nl < no_p; ++nl) {
              const std::int64_t n = i * no_p + nl;
              double* dst = &out_vec[static_cast<std::size_t>(
                  (((q0 + q) * shape.no + n) * out_rows + (ro - ro_begin)) *
                      shape.co() * 4 +
                  c0 * 4)];
              ctx.dma_put(tile_run(do_tile, nl, q),
                          {dst, static_cast<std::size_t>(run)});
            }
          }
        }
      }
    }
  };
  sim::LaunchStats stats = exec.run(kernel);
  if (!stats.failed) {
    tensor::unpack_image_size_aware_rows(out_vec, ro_begin, ro_end, output);
  }
  return stats;
}

sim::LaunchStats run_batch_size_aware(sim::MeshExecutor& exec,
                                      const tensor::Tensor& input,
                                      const tensor::Tensor& filter,
                                      tensor::Tensor& output,
                                      const ConvShape& shape,
                                      const perf::ConvPlan& plan,
                                      std::int64_t ro_begin,
                                      std::int64_t ro_end) {
  const int p = exec.spec().mesh_rows;
  check_mesh_compatibility(shape, plan, p);
  ro_end = resolve_ro_end(shape, ro_end);

  const std::int64_t ni_p = shape.ni / p;
  const std::int64_t no_p = shape.no / p;
  const std::int64_t b_p = shape.batch / p;
  const std::int64_t bco = plan.block_co;
  const std::int64_t big_no = shape.no;

  auto kernel = [&, ro_begin, ro_end](sim::CpeContext& ctx) {
    const std::int64_t i = ctx.row();
    const std::int64_t j = ctx.col();

    auto w_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * no_p));
    auto w_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * no_p));
    auto di_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * b_p));
    auto di_recv = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(ni_p * b_p));
    // Output tile: [c_rel][no_local][b] so each output column's slice is
    // contiguous for the mesh GEMM.
    auto do_tile = ctx.ldm().alloc_doubles(
        static_cast<std::size_t>(bco * no_p * b_p));

    for (std::int64_t c0 = 0; c0 < shape.co(); c0 += bco) {
      for (std::int64_t ro = ro_begin; ro < ro_end; ++ro) {
        std::fill(do_tile.begin(), do_tile.end(), 0.0);
        for (std::int64_t kr = 0; kr < shape.kr; ++kr) {
          const std::int64_t ri = ro + kr;
          for (std::int64_t ci = c0; ci < c0 + bco + shape.kc - 1; ++ci) {
            // One input pixel column: channel block i, batch block j.
            ctx.dma_get_strided(
                &input.data()[input.offset({ri, ci, i * ni_p, j * b_p})],
                ni_p, b_p, shape.batch, di_tile);
            for (std::int64_t kc = 0; kc < shape.kc; ++kc) {
              const std::int64_t co = ci - kc;
              if (co < c0 || co >= c0 + bco) continue;
              ctx.dma_get_strided(
                  &filter.data()[filter.offset(
                      {kr, kc, j * ni_p, i * no_p})],
                  ni_p, no_p, big_no, w_tile);
              std::span<double> do_slice = do_tile.subspan(
                  static_cast<std::size_t>((co - c0) * no_p * b_p),
                  static_cast<std::size_t>(no_p * b_p));
              mesh_gemm_accumulate(ctx, w_tile, di_tile, do_slice, w_recv,
                                   di_recv, static_cast<int>(no_p),
                                   static_cast<int>(ni_p),
                                   static_cast<int>(b_p));
            }
          }
        }
        for (std::int64_t c_rel = 0; c_rel < bco; ++c_rel) {
          for (std::int64_t nl = 0; nl < no_p; ++nl) {
            double* dst = &output.data()[output.offset(
                {ro, c0 + c_rel, i * no_p + nl, j * b_p})];
            std::span<const double> src = do_tile.subspan(
                static_cast<std::size_t>((c_rel * no_p + nl) * b_p),
                static_cast<std::size_t>(b_p));
            ctx.dma_put(src, {dst, static_cast<std::size_t>(b_p)});
          }
        }
      }
    }
  };
  return exec.run(kernel);
}

sim::LaunchStats predict_ldm_blocked(const ConvShape& shape,
                                     const perf::ConvPlan& plan,
                                     const arch::Sw26010Spec& spec,
                                     std::int64_t ro_begin,
                                     std::int64_t ro_end) {
  if (plan.kind == perf::PlanKind::kFilterGrained) {
    throw std::invalid_argument("predict_ldm_blocked: not an LDM-blocked plan");
  }
  const std::int64_t p = spec.mesh_rows;
  check_mesh_compatibility(shape, plan, static_cast<int>(p));
  ro_end = resolve_ro_end(shape, ro_end);

  const std::int64_t ni_p = shape.ni / p;
  const std::int64_t no_p = shape.no / p;
  const std::int64_t rows = ro_end - ro_begin;
  const std::int64_t col_tiles = shape.co() / plan.block_co;
  const std::int64_t taps = shape.kr * shape.kc;
  // Every CPE issues the same requests; `per_cpe` counts one CPE's.
  const auto cpes = static_cast<std::uint64_t>(p * p);
  sim::LaunchTally tally;
  const auto dma = [&](std::int64_t per_cpe, std::int64_t block_elems,
                       std::int64_t blocks, perf::DmaDirection dir) {
    tally.add_dma(spec, cpes * static_cast<std::uint64_t>(per_cpe),
                  static_cast<std::uint64_t>(blocks * block_elems * 8),
                  block_elems * 8, dir);
  };
  const auto gemms = [&](std::int64_t per_cpe, std::int64_t n_tile) {
    tally_mesh_gemm_accumulate(tally, spec,
                               static_cast<std::uint64_t>(per_cpe), no_p,
                               ni_p, n_tile);
  };

  if (plan.kind == perf::PlanKind::kImageSizeAware) {
    // Per output tile (batch block, row, column block) and tap: one
    // filter slice strided at no_p doubles, one bCo*4-double run per
    // (batch quad, input channel), one mesh GEMM; then one run per
    // (batch quad, output channel) back.
    const std::int64_t bb_p = plan.block_b / p;
    const std::int64_t quads_p = bb_p / 4;
    const std::int64_t run = plan.block_co * 4;
    const std::int64_t tiles = shape.batch / plan.block_b * rows * col_tiles;
    dma(tiles * taps, no_p, ni_p, perf::DmaDirection::kGet);
    dma(tiles * taps * quads_p * ni_p, run, 1, perf::DmaDirection::kGet);
    dma(tiles * quads_p * no_p, run, 1, perf::DmaDirection::kPut);
    gemms(tiles * taps, plan.block_co * bb_p);
  } else {
    // Per output tile (column block, row) and filter row: bCo + Kc - 1
    // input pixel columns strided at b_p doubles, and a filter slice
    // strided at no_p plus a mesh GEMM for each of the bCo * Kc
    // (column, tap) pairs; then one b_p-double put per (column, output
    // channel).
    const std::int64_t b_p = shape.batch / p;
    const std::int64_t tiles = col_tiles * rows;
    const std::int64_t pairs = tiles * shape.kr * plan.block_co * shape.kc;
    dma(tiles * shape.kr * (plan.block_co + shape.kc - 1), b_p, ni_p,
        perf::DmaDirection::kGet);
    dma(pairs, no_p, ni_p, perf::DmaDirection::kGet);
    dma(tiles * plan.block_co * no_p, b_p, 1, perf::DmaDirection::kPut);
    gemms(pairs, b_p);
  }
  return tally.stats(spec);
}

}  // namespace swdnn::conv
