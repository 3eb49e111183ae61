#pragma once
// The three-level (REG - LDM - MEM) performance model of paper Fig. 2.
//
// For a convolution shape and an execution plan the model computes:
//   * RBW(MEM->LDM): the bandwidth required to keep the CPEs at peak,
//     from Eq. (1) (image-size-aware) or Eq. (2) (batch-size-aware);
//   * MBW(MEM->LDM): the bandwidth the DMA engine actually delivers,
//     a traffic-weighted harmonic mean over the plan's input / filter /
//     output streams with per-stream block sizes looked up in Table II;
//   * RBW(LDM->REG): Eq. (5) with the plan's register blocking, against
//     the 46.4 GB/s LDM port;
//   * EE: execution efficiency of the inner instruction schedule, from
//     the dual-pipeline simulator (Section VI), derated by a small
//     constant for the loop-control and mesh-id bookkeeping the paper's
//     assembly unrolls;
//   * the resulting estimate, peak * EE * min(1, MBW/RBW)^2 per level —
//     the square is the paper's empirical rule ("the amount of
//     computation increases with the square of the input data").
//
// Toggles map to ablations: without register communication each CPE
// must fetch all Ni input channels and all No filter channels itself,
// multiplying required memory bandwidth by the mesh dimension (8) —
// the Section V-A "order of magnitude" claim. Without double buffering
// the memory and compute phases serialize instead of overlapping.

#include "src/arch/spec.h"
#include "src/conv/shape.h"
#include "src/perf/dma_table.h"
#include "src/perf/plan.h"

namespace swdnn::perf {

/// Traffic of one DMA stream over a whole layer.
struct StreamTraffic {
  double bytes = 0;              ///< total bytes moved
  std::int64_t block_bytes = 0;  ///< contiguous block per request
  DmaDirection direction = DmaDirection::kGet;
  bool aligned = true;
};

struct TrafficBreakdown {
  StreamTraffic input;
  StreamTraffic filter;
  StreamTraffic output;

  double total_bytes() const {
    return input.bytes + filter.bytes + output.bytes;
  }
};

struct PerfEstimate {
  double rbw_mem_gbs = 0;    ///< Eq. (1)/(2) requirement
  double mbw_mem_gbs = 0;    ///< Table II effective delivery
  double rbw_ldm_gbs = 0;    ///< Eq. (5) per-CPE requirement
  double mbw_ldm_gbs = 0;    ///< 46.4 GB/s port
  double ee = 0;             ///< pipeline execution efficiency
  double mem_factor = 0;     ///< min(1, MBW/RBW)^2 at MEM level
  double ldm_factor = 0;     ///< min(1, MBW/RBW)^2 at LDM level
  double gflops_per_cg = 0;
  double gflops_chip = 0;    ///< 4 CGs, paper's near-linear row split
  TrafficBreakdown traffic;

  double seconds_for(std::int64_t flops, int num_cgs = 4) const;
};

class PerformanceModel {
 public:
  explicit PerformanceModel(
      const arch::Sw26010Spec& spec = arch::default_spec());

  /// Full model evaluation for one shape + plan.
  PerfEstimate estimate(const conv::ConvShape& shape,
                        const ConvPlan& plan) const;

  /// Required MEM->LDM bandwidth, Eq. (1) (GB/s per CG).
  double rbw_image_plan(const conv::ConvShape& shape,
                        const ConvPlan& plan) const;

  /// Required MEM->LDM bandwidth, Eq. (2) (GB/s per CG).
  double rbw_batch_plan(const conv::ConvShape& shape,
                        const ConvPlan& plan = ConvPlan{}) const;

  /// Required MEM->LDM bandwidth of the filter-grained lowering:
  /// (1/bPx + 3/No + 1/K) * DS * T/2 with K = Kr*Kc*Ni. The 1/bPx term
  /// is the filter matrix re-streamed per pixel block, the 3/No term
  /// charges the full im2col lowering (patch gather-read, column-matrix
  /// write, column-matrix read), the 1/K term the output put.
  double rbw_filter_grained(const conv::ConvShape& shape,
                            const ConvPlan& plan) const;

  /// Required LDM->REG bandwidth with SIMD filter replication, Eq. (5)
  /// (GB/s per CPE). rb_no filter elements cost 4x: a scalar is loaded
  /// and splatted into a vector.
  double rbw_register_simd(const ConvPlan& plan) const;

  /// Required LDM->REG bandwidth of the spatial-convolution register
  /// blocking, Eq. (3) (per CPE) — shown for why it was rejected.
  double rbw_register_spatial(std::int64_t rb_ri, std::int64_t rb_ci,
                              std::int64_t rb_kr, std::int64_t rb_kc) const;

  /// DMA traffic breakdown of the plan over the whole layer.
  TrafficBreakdown traffic(const conv::ConvShape& shape,
                           const ConvPlan& plan) const;

  /// Effective MEM<->LDM bandwidth: harmonic mean of the streams.
  double effective_mbw(const TrafficBreakdown& t) const;

  /// Fig. 2 middle column: the gload strawman, peak * (8/139.2)^2.
  double direct_gload_gflops_per_cg() const;

  const arch::Sw26010Spec& spec() const { return spec_; }

 private:
  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
};

}  // namespace swdnn::perf
