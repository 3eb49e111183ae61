#include "src/parallel/allreduce.h"

namespace swdnn::parallel {

double ring_allreduce_seconds(std::int64_t bytes, int nodes,
                              const InterconnectSpec& spec) {
  if (nodes <= 1) return 0.0;
  const double n = static_cast<double>(nodes);
  const double chunk_bytes = static_cast<double>(bytes) / n;
  const double steps = 2.0 * (n - 1.0);
  return steps * (chunk_bytes / (spec.link_bandwidth_gbs * 1e9) +
                  spec.hop_latency_us * 1e-6);
}

double data_parallel_efficiency(double compute_seconds,
                                std::int64_t gradient_bytes, int nodes,
                                const InterconnectSpec& spec) {
  const double comm = ring_allreduce_seconds(gradient_bytes, nodes, spec);
  return compute_seconds / (compute_seconds + comm);
}

}  // namespace swdnn::parallel
