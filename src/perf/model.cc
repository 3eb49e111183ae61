#include "src/perf/model.h"

#include <algorithm>
#include <cmath>

#include "src/timing/kernels.h"

namespace swdnn::perf {

namespace {
// The paper's unrolled assembly still spends a small fraction of P0
// issue slots on mesh-id selection and register packing that the inner
// loop model does not see ("we ... unroll the two if-else statements for
// thread column and row ids in the outer loop to reduce overhead").
// This constant derates EE for that residue; it is the one fitted knob
// in the model and is exercised by the Table III bench.
constexpr double kOuterLoopOverhead = 0.94;

// Table II was measured with one-direction solid streaming; a real
// convolution interleaves input gets, filter gets and output puts on the
// same DMA engine and pays request setup between them. The paper's
// measured in-kernel MBW (Table III: 18.2-21.9 GB/s) sits ~12% below the
// Table II interpolation for the same block sizes; this constant carries
// that derate. Second fitted knob of the model (see kOuterLoopOverhead).
constexpr double kDmaInterleaveDerate = 0.88;

// In-kernel effective MBW never exceeded ~22 GB/s in any of the paper's
// measured configurations (Table III: 18.2-21.9), even where the block
// sizes alone would predict more — the convolution's get/put mix cannot
// reach the solid-streaming ceiling. Cap the model accordingly.
constexpr double kInKernelMbwCapGbs = 22.0;

constexpr double kDs = 8.0;  // double precision bytes
}  // namespace

double PerfEstimate::seconds_for(std::int64_t flops, int num_cgs) const {
  const double gf =
      num_cgs >= 4 ? gflops_chip : gflops_per_cg * static_cast<double>(num_cgs);
  return gf > 0 ? static_cast<double>(flops) / (gf * 1e9) : 0.0;
}

PerformanceModel::PerformanceModel(const arch::Sw26010Spec& spec)
    : spec_(spec) {}

double PerformanceModel::rbw_image_plan(const conv::ConvShape& shape,
                                        const ConvPlan& plan) const {
  // Eq. (1): RBW = (1/(bCo*bB) + 1/No) * DS / (2/T). The first term is
  // the filter slice re-read per output tile, the second the input
  // pixels. When the input DMA is promoted above the Kc loop (the §IV
  // "promote the DMA operation to outer loop" extension) the input term
  // amortizes over the Kc reuses, paying only the (bCo+Kc-1)/bCo halo.
  const double t = spec_.peak_gflops_per_cg();
  const double filter_term =
      1.0 / static_cast<double>(plan.block_co * plan.block_b);
  double input_term = 1.0 / static_cast<double>(shape.no);
  if (plan.promote_input_dma) {
    input_term *= static_cast<double>(plan.block_co + shape.kc - 1) /
                  static_cast<double>(plan.block_co * shape.kc);
  }
  return (filter_term + input_term) * kDs * t / 2.0;
}

double PerformanceModel::rbw_batch_plan(const conv::ConvShape& shape,
                                        const ConvPlan& plan) const {
  // Eq. (2): RBW = (1/(Kc*No) + 1/B) * DS / (2/T). The first term is
  // the filter re-read per input pixel; promoting the filter DMA above
  // the pixel loop (§IV) amortizes it over the bCo+Kc-1 pixels of the
  // output-column tile.
  const double t = spec_.peak_gflops_per_cg();
  double filter_term = 1.0 / static_cast<double>(shape.kc * shape.no);
  if (plan.promote_filter_dma) {
    filter_term *= static_cast<double>(shape.kc) /
                   static_cast<double>(plan.block_co + shape.kc - 1);
  }
  const double input_term = 1.0 / static_cast<double>(shape.batch);
  return (filter_term + input_term) * kDs * t / 2.0;
}

double PerformanceModel::rbw_filter_grained(const conv::ConvShape& shape,
                                            const ConvPlan& plan) const {
  const double t = spec_.peak_gflops_per_cg();
  const double k = static_cast<double>(shape.kr * shape.kc * shape.ni);
  const double bpx =
      static_cast<double>(filter_grained_block_px(shape, plan, spec_));
  const double filter_term = bpx > 0 ? 1.0 / bpx : 1.0;
  const double lowering_term = 3.0 / static_cast<double>(shape.no);
  const double output_term = 1.0 / k;
  return (filter_term + lowering_term + output_term) * kDs * t / 2.0;
}

double PerformanceModel::rbw_register_simd(const ConvPlan& plan) const {
  // Eq. (5): (rbB + 4*rbNo) * DS / (2*rbB*rbNo / T_cpe); the 4x on the
  // filter term pays for replicating a scalar across the vector lanes.
  const double t = spec_.peak_gflops_per_cpe();
  const double num =
      static_cast<double>(plan.rb_b + 4 * plan.rb_no) * kDs;
  const double den = 2.0 * static_cast<double>(plan.rb_b * plan.rb_no) / t;
  return num / den;
}

double PerformanceModel::rbw_register_spatial(std::int64_t rb_ri,
                                              std::int64_t rb_ci,
                                              std::int64_t rb_kr,
                                              std::int64_t rb_kc) const {
  // Eq. (3): ((rbRi*rbCi + rbCo*rbRo) * DS) / (2*rbKr*rbKc*rbCo*rbRo / T).
  const double t = spec_.peak_gflops_per_cpe();
  const std::int64_t rb_ro = rb_ri - rb_kr + 1;
  const std::int64_t rb_co = rb_ci - rb_kc + 1;
  const double num = static_cast<double>(rb_ri * rb_ci + rb_co * rb_ro) * kDs;
  const double den =
      2.0 * static_cast<double>(rb_kr * rb_kc * rb_co * rb_ro) / t;
  return num / den;
}

TrafficBreakdown PerformanceModel::traffic(const conv::ConvShape& shape,
                                           const ConvPlan& plan) const {
  TrafficBreakdown t;
  const auto b = static_cast<double>(shape.batch);
  const auto ni = static_cast<double>(shape.ni);
  const auto no = static_cast<double>(shape.no);
  const auto ro = static_cast<double>(shape.ro());
  const auto co = static_cast<double>(shape.co());
  const auto kr = static_cast<double>(shape.kr);
  const auto kc = static_cast<double>(shape.kc);

  switch (plan.kind) {
  case PlanKind::kImageSizeAware: {
    // Algorithm 1. Steps: (B/bB) * Ro * (Co/bCo) * Kr * Kc. In the
    // image-size-aware layout (4, C, R, N, B/4) the contiguous axis is
    // C (times the 4 batch lanes), so the DMA block a request streams
    // is bCo * 4 lanes * 8 B — which is why bCo, not bB, controls the
    // achieved bandwidth (Section IV's "leading dimension" insight).
    const double bb = static_cast<double>(plan.block_b);
    const double bco = static_cast<double>(plan.block_co);
    double steps = (b / bb) * ro * (co / bco) * kr * kc;
    double in_steps = plan.promote_input_dma ? steps / kc : steps;
    const double in_per_step =
        plan.promote_input_dma ? (bco + kc - 1) * ni * bb : bco * ni * bb;
    t.input.bytes = in_steps * in_per_step * kDs;
    t.input.block_bytes = static_cast<std::int64_t>(bco) * 4 * 8;
    t.filter.bytes = steps * ni * no * kDs;
    // One strided descriptor fetches a CPE's whole (Ni/8 x No/8) filter
    // tile; the engine streams it at the burst rate of the tile size.
    t.filter.block_bytes = static_cast<std::int64_t>(
        (ni / spec_.mesh_rows) * (no / spec_.mesh_cols) * 8);
    t.output.bytes = b * ro * co * no * kDs;
    t.output.block_bytes = static_cast<std::int64_t>(bco) * 4 * 8;
    t.output.direction = DmaDirection::kPut;
    break;
  }
  case PlanKind::kBatchSizeAware: {
    // Algorithm 2. Input: one pixel column of all channels and batches
    // per get, re-read once per Kr and once per output-column tile halo.
    const double bco = static_cast<double>(plan.block_co);
    const double pixel_gets = (co / bco) * ro * kr * (bco + kc - 1);
    t.input.bytes = pixel_gets * ni * b * kDs;
    t.input.block_bytes = static_cast<std::int64_t>(b) * 8;
    const double w_gets = plan.promote_filter_dma
                              ? (co / bco) * ro * kr
                              : (co / bco) * ro * kr * (bco + kc - 1) * kc;
    const double w_per_get =
        plan.promote_filter_dma ? kc * ni * no : ni * no;
    t.filter.bytes = w_gets * w_per_get * kDs;
    t.filter.block_bytes = static_cast<std::int64_t>(
        (ni / spec_.mesh_rows) * (no / spec_.mesh_cols) * 8);
    t.output.bytes = b * ro * co * no * kDs;
    t.output.block_bytes = static_cast<std::int64_t>(b) * 8;
    t.output.direction = DmaDirection::kPut;
    break;
  }
  case PlanKind::kFilterGrained: {
    // One [K x No] filter matrix re-streamed per pixel-column pass plus
    // the full im2col lowering: the patch gather reads the input K/Ni
    // times over, stages the column matrix through memory, and the GEMM
    // reads it back — three K*P-sized streams charged to the input.
    const double k_rows = kr * kc * ni;
    const double pixels = ro * co * b;
    const std::int64_t bpx = filter_grained_block_px(shape, plan, spec_);
    const double passes =
        bpx > 0 ? std::ceil(pixels / static_cast<double>(bpx)) : 1.0;
    const std::int64_t n_t =
        bpx > 0 ? (bpx + spec_.mesh_rows - 1) / spec_.mesh_rows : 1;
    const std::int64_t m_t =
        (shape.no + spec_.mesh_cols - 1) / spec_.mesh_cols;
    t.input.bytes = 3.0 * k_rows * pixels * kDs;
    t.input.block_bytes = n_t * 8;
    t.filter.bytes = passes * k_rows * no * kDs;
    t.filter.block_bytes = m_t * 8;
    t.output.bytes = no * pixels * kDs;
    t.output.block_bytes = n_t * 8;
    t.output.direction = DmaDirection::kPut;
    break;
  }
  }

  auto align = [this](StreamTraffic& s) {
    s.aligned = s.block_bytes %
                    static_cast<std::int64_t>(spec_.dma_alignment_bytes) ==
                0;
  };
  align(t.input);
  align(t.filter);
  align(t.output);
  return t;
}

double PerformanceModel::effective_mbw(const TrafficBreakdown& t) const {
  const auto& table = dma_table();
  double time = 0;
  for (const StreamTraffic* s : {&t.input, &t.filter, &t.output}) {
    if (s->bytes <= 0) continue;
    time += s->bytes / table.bandwidth_gbs(s->block_bytes, s->direction,
                                           s->aligned);
  }
  if (time <= 0) return 0.0;
  return std::min(kInKernelMbwCapGbs,
                  kDmaInterleaveDerate * t.total_bytes() / time);
}

double PerformanceModel::direct_gload_gflops_per_cg() const {
  const double ratio =
      spec_.gload_bandwidth_gbs / spec_.direct_required_bandwidth_gbs();
  return spec_.peak_gflops_per_cg() * ratio * ratio;
}

PerfEstimate PerformanceModel::estimate(const conv::ConvShape& shape,
                                        const ConvPlan& plan) const {
  PerfEstimate e;
  switch (plan.kind) {
    case PlanKind::kImageSizeAware:
      e.rbw_mem_gbs = rbw_image_plan(shape, plan);
      break;
    case PlanKind::kBatchSizeAware:
      e.rbw_mem_gbs = rbw_batch_plan(shape, plan);
      break;
    case PlanKind::kFilterGrained:
      e.rbw_mem_gbs = rbw_filter_grained(shape, plan);
      break;
  }
  if (!plan.use_register_comm) {
    // Without mesh data sharing, each CPE fetches all Ni input channels
    // and all No filter channels itself instead of 1/8 of each: the
    // required memory bandwidth grows by the mesh dimension.
    e.rbw_mem_gbs *= static_cast<double>(spec_.mesh_rows);
  }
  e.traffic = traffic(shape, plan);
  e.mbw_mem_gbs = effective_mbw(e.traffic);

  e.rbw_ldm_gbs = rbw_register_simd(plan);
  e.mbw_ldm_gbs = spec_.ldm_reg_bandwidth_gbs;

  // EE depends on the inner-loop trip count: the (possibly blocked)
  // input-channel extent for the paper's mappings, and the LDM
  // contraction chunk for the filter-grained GEMM (its pipeline drains
  // once per chunk, not per channel block).
  std::int64_t inner_trip =
      plan.block_ni > 0 ? std::min(plan.block_ni, shape.ni) : shape.ni;
  if (plan.kind == PlanKind::kFilterGrained) {
    inner_trip = std::max<std::int64_t>(
        1, filter_grained_k_chunk(shape, plan, spec_));
  }
  e.ee = timing::simulated_ee(inner_trip, plan.reordered_pipeline) *
         kOuterLoopOverhead;

  const double rm = std::min(1.0, e.mbw_mem_gbs / e.rbw_mem_gbs);
  const double rl = std::min(1.0, e.mbw_ldm_gbs / e.rbw_ldm_gbs);
  e.mem_factor = rm * rm;
  e.ldm_factor = rl * rl;

  const double peak = spec_.peak_gflops_per_cg();
  if (plan.double_buffer) {
    // DMA overlaps compute: the binding constraint wins.
    e.gflops_per_cg = peak * e.ee * e.mem_factor * e.ldm_factor;
  } else {
    // Phases serialize: inverse throughputs add.
    const double compute = peak * e.ee * e.ldm_factor;
    const double memory = peak * e.mem_factor;
    e.gflops_per_cg = 1.0 / (1.0 / compute + 1.0 / memory);
  }
  e.gflops_chip = e.gflops_per_cg * spec_.num_core_groups;
  return e;
}

}  // namespace swdnn::perf
