#pragma once
// Multi-core-group (NoC) scaling support.
//
// An SW26010 chip has four core groups joined by a network-on-chip. The
// paper's scaling scheme (Section III-D) partitions the output images
// into four parts along the row dimension, one per CG; each CG owns its
// memory controller so partitions stream independently, and filters live
// in the shared memory space. We reproduce that: the partition math and
// the scaling model (per-CG time + a fixed launch overhead). The
// functional runner is conv::SwConvolution::forward_multi_cg, which
// issues one mesh launch per partition.

#include <cstdint>
#include <vector>

#include "src/sim/executor.h"

namespace swdnn::sim {

struct RowPartition {
  std::int64_t begin = 0;  ///< first output row owned by this CG
  std::int64_t end = 0;    ///< one past the last output row
  std::int64_t rows() const { return end - begin; }
};

/// Splits `total_rows` into `num_parts` near-equal contiguous ranges
/// (earlier parts take the remainder, matching the paper's row split).
std::vector<RowPartition> partition_output_rows(std::int64_t total_rows,
                                                int num_parts);

/// Cost model for CG-to-CG traffic over the on-chip NoC. The paper
/// gives no NoC bandwidth number, so these are inferred defaults
/// (DESIGN.md §8): the NoC is on-die and joins the four CGs' memory
/// controllers, so a link is modeled well above the 8 GB/s node
/// injection bandwidth and well below aggregate DDR (4 x 36 GB/s),
/// with sub-microsecond hop latency (no network software stack).
/// Hierarchical gradient exchange charges its intra-node phase here.
struct NocInterconnectSpec {
  double link_bandwidth_gbs = 64.0;  ///< CG-to-CG on-chip link
  double hop_latency_us = 0.2;       ///< per NoC hop (on-die, no NIC)
};

/// Seconds one ring all-reduce of `bytes` across `cgs` core groups
/// takes over the NoC: the standard 2*(k-1) steps moving bytes/k each
/// (reduce-scatter + all-gather), charged at NoC link speed. The
/// hierarchical exchange uses this for its intra-node reduce+broadcast
/// phases (each phase is half the ring: (k-1) steps).
double noc_allreduce_seconds(std::int64_t bytes, int cgs,
                             const NocInterconnectSpec& spec = {});

struct MultiCgStats {
  std::vector<LaunchStats> per_cg;
  double launch_overhead_seconds = 0;

  /// CGs run concurrently: chip time = slowest CG + launch overhead.
  double modeled_seconds(bool overlap = true) const;

  /// Aggregate flops across CGs.
  std::uint64_t total_flops() const;

  double modeled_gflops(bool overlap = true) const {
    const double s = modeled_seconds(overlap);
    return s > 0 ? static_cast<double>(total_flops()) / s / 1e9 : 0.0;
  }

  /// Speedup over running everything on one CG serially.
  double scaling_speedup(bool overlap = true) const;
};

}  // namespace swdnn::sim
