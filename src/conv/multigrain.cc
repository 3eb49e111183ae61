#include "src/conv/multigrain.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/conv/ldm_blocked.h"
#include "src/conv/mesh_gemm_driver.h"

namespace swdnn::conv {

namespace {

std::int64_t resolve_ro_end(const ConvShape& shape, std::int64_t ro_end) {
  return ro_end < 0 ? shape.ro() : ro_end;
}

/// The pixel passes of a launch over output rows [ro_begin, ro_end):
/// `pixels` flattened (ro, co, b) columns in blocks of `block_px`, each
/// pass a mesh_gemm streaming `k_chunk` contraction rows at a time.
struct Passes {
  std::int64_t pixels = 0;
  std::int64_t block_px = 0;
  std::int64_t k_chunk = 0;
};

Passes resolve_passes(const ConvShape& shape, const perf::ConvPlan& plan,
                      const arch::Sw26010Spec& spec, std::int64_t ro_begin,
                      std::int64_t ro_end) {
  check_mesh_compatibility(shape, plan, spec.mesh_rows);
  Passes passes;
  passes.pixels = (ro_end - ro_begin) * shape.co() * shape.batch;
  passes.block_px = perf::filter_grained_block_px(shape, plan, spec);
  passes.k_chunk = perf::filter_grained_k_chunk(shape, plan, spec);
  if (passes.pixels > 0 && (passes.block_px <= 0 || passes.k_chunk <= 0)) {
    throw MeshMappingError("filter-grained tile set overflows LDM for " +
                           shape.to_string());
  }
  return passes;
}

}  // namespace

sim::LaunchStats run_filter_grained(sim::MeshExecutor& exec,
                                    const tensor::Tensor& input,
                                    const tensor::Tensor& filter,
                                    tensor::Tensor& output,
                                    const ConvShape& shape,
                                    const perf::ConvPlan& plan,
                                    std::int64_t ro_begin,
                                    std::int64_t ro_end) {
  const auto& spec = exec.spec();
  ro_end = resolve_ro_end(shape, ro_end);
  const auto [pixels, bpx, k_chunk] =
      resolve_passes(shape, plan, spec, ro_begin, ro_end);
  if (pixels <= 0) return {};

  const std::int64_t big_k = shape.kr * shape.kc * shape.ni;
  const std::int64_t big_co = shape.co();
  const std::int64_t big_b = shape.batch;

  // The filter tensor [Kr][Kc][Ni][No] row-major IS the [K x No] matrix
  // in the contraction order the bitwise contract pins down (kr, kc, ni
  // ascending) — no host-side permutation needed.
  std::span<const double> w_matrix = filter.data();
  std::span<const double> in = input.data();
  std::span<double> out = output.data();
  const std::int64_t ci = shape.ci;
  const std::int64_t ni = shape.ni;
  const std::int64_t no = shape.no;

  std::vector<double> col;
  std::vector<double> panel;
  sim::LaunchStats total;

  for (std::int64_t px0 = 0; px0 < pixels; px0 += bpx) {
    const std::int64_t w = std::min(bpx, pixels - px0);
    col.assign(static_cast<std::size_t>(big_k * w), 0.0);
    // Column-matrix panel: row k = (kr*Kc + kc)*Ni + ni_c of the im2col
    // lowering, columns the flattened (ro, co, b) pixels [px0, px0+w).
    // Pixels with a common (ro, co) are batch-contiguous in the input,
    // so the gather copies runs.
    for (std::int64_t k = 0; k < big_k; ++k) {
      const std::int64_t kr = k / (shape.kc * ni);
      const std::int64_t kc = (k / ni) % shape.kc;
      const std::int64_t ni_c = k % ni;
      double* dst_row = col.data() + k * w;
      std::int64_t n = 0;
      while (n < w) {
        const std::int64_t px = px0 + n;
        const std::int64_t ro = ro_begin + px / (big_co * big_b);
        const std::int64_t co = (px / big_b) % big_co;
        const std::int64_t b = px % big_b;
        const std::int64_t run = std::min(big_b - b, w - n);
        const double* src =
            in.data() +
            (((ro + kr) * ci + (co + kc)) * ni + ni_c) * big_b + b;
        std::memcpy(dst_row + n, src,
                    static_cast<std::size_t>(run) * sizeof(double));
        n += run;
      }
    }

    panel.assign(static_cast<std::size_t>(no * w), 0.0);
    const sim::LaunchStats stats =
        mesh_gemm(exec, w_matrix, col, panel, no, big_k, w,
                  {.accumulate = false, .k_chunk = k_chunk});
    total.accumulate(stats);
    if (total.failed) return total;

    // Scatter the [No x w] panel back into [Ro][Co][No][B] (again in
    // batch-contiguous runs).
    for (std::int64_t no_c = 0; no_c < no; ++no_c) {
      const double* src_row = panel.data() + no_c * w;
      std::int64_t n = 0;
      while (n < w) {
        const std::int64_t px = px0 + n;
        const std::int64_t ro = ro_begin + px / (big_co * big_b);
        const std::int64_t co = (px / big_b) % big_co;
        const std::int64_t b = px % big_b;
        const std::int64_t run = std::min(big_b - b, w - n);
        double* dst =
            out.data() + ((ro * big_co + co) * no + no_c) * big_b + b;
        std::memcpy(dst, src_row + n,
                    static_cast<std::size_t>(run) * sizeof(double));
        n += run;
      }
    }
  }
  return total;
}

sim::LaunchStats predict_filter_grained(const ConvShape& shape,
                                        const perf::ConvPlan& plan,
                                        const arch::Sw26010Spec& spec,
                                        std::int64_t ro_begin,
                                        std::int64_t ro_end) {
  ro_end = resolve_ro_end(shape, ro_end);
  const auto [pixels, bpx, k_chunk] =
      resolve_passes(shape, plan, spec, ro_begin, ro_end);
  sim::LaunchStats total;
  if (pixels <= 0) return total;
  const std::int64_t big_k = shape.kr * shape.kc * shape.ni;
  const MeshGemmOptions options{.accumulate = false, .k_chunk = k_chunk};
  // Every pass but a ragged last one is the same launch.
  const sim::LaunchStats full =
      predict_mesh_gemm(spec, shape.no, big_k, bpx, options);
  for (std::int64_t i = 0; i < pixels / bpx; ++i) total.accumulate(full);
  if (pixels % bpx > 0) {
    total.accumulate(
        predict_mesh_gemm(spec, shape.no, big_k, pixels % bpx, options));
  }
  return total;
}

}  // namespace swdnn::conv
