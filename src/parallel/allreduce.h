#pragma once
// Ring all-reduce cost model across simulated nodes.
//
// The paper's introduction frames swDNN inside large-scale parallel
// DNN training ("the increasing adoption of large-scale GPU clusters
// ... there are still algorithmic difficulties for scaling the training
// process"); a TaihuLight deployment shards the batch across nodes and
// averages gradients every step. This module prices that exchange with
// the standard ring cost model (2(N-1)/N * bytes at link bandwidth +
// per-step latency) so the trainers and examples can report
// communication budgets alongside compute. The reduction itself is
// HierarchicalTrainer's canonical kernel (hierarchical.h).

#include <cstdint>

namespace swdnn::parallel {

struct InterconnectSpec {
  double link_bandwidth_gbs = 8.0;  ///< per-direction node link (TaihuLight
                                    ///< network: ~8 GB/s injection per node)
  double hop_latency_us = 1.0;      ///< per ring step software+switch latency
};

/// Seconds one ring all-reduce of `bytes` takes across `nodes`:
/// 2*(N-1) steps moving bytes/N each.
double ring_allreduce_seconds(std::int64_t bytes, int nodes,
                              const InterconnectSpec& spec = {});

/// Parallel efficiency of data-parallel training: compute time per step
/// vs compute + all-reduce of the gradient bytes.
double data_parallel_efficiency(double compute_seconds,
                                std::int64_t gradient_bytes, int nodes,
                                const InterconnectSpec& spec = {});

}  // namespace swdnn::parallel
