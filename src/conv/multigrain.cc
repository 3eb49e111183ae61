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
  check_mesh_compatibility(shape, plan, spec.mesh_rows);
  ro_end = resolve_ro_end(shape, ro_end);

  const std::int64_t big_k = shape.kr * shape.kc * shape.ni;
  const std::int64_t big_co = shape.co();
  const std::int64_t big_b = shape.batch;
  const std::int64_t pixels = (ro_end - ro_begin) * big_co * big_b;
  const std::int64_t bpx = perf::filter_grained_block_px(shape, plan, spec);
  const std::int64_t k_chunk = perf::filter_grained_k_chunk(shape, plan, spec);
  if (pixels <= 0) return {};
  if (bpx <= 0 || k_chunk <= 0) {
    throw MeshMappingError("filter-grained tile set overflows LDM for " +
                           shape.to_string());
  }

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

}  // namespace swdnn::conv
