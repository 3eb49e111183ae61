// Host wall-clock throughput of the functional simulator: the
// optimized hot path (CPE fibers on the launching thread + bulk span
// bus transfers + register-blocked local GEMM) against the reference
// (thread spawn per CPE per launch + per-Vec4 bus loop + naive
// microkernel), on the same 64x64x256 mesh GEMM on the full 8x8 mesh.
// Both configurations produce bitwise-identical outputs and identical
// LaunchStats (sim_bulk_regcomm_test holds that invariant); only the
// host time differs. Also reports a mesh-backend FC step, where every
// launch reuses the executor of the layer's private backend context;
// it is reported, not gated. Results land in
// BENCH_sim_throughput.json.

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/regcomm_gemm.h"
#include "src/dnn/fully_connected.h"
#include "src/sim/executor.h"
#include "src/util/rng.h"
#include "src/util/stopwatch.h"

namespace {

using namespace swdnn;

constexpr std::int64_t kM = 64, kK = 256, kN = 64;
constexpr int kWarmup = 2;
constexpr int kSteps = 10;

struct ModeResult {
  double seconds_per_launch = 0;
  double launches_per_second = 0;
  double sim_gflops_per_host_second = 0;  ///< simulated flops / host time
  sim::LaunchStats stats;
  std::vector<double> out;
};

ModeResult run_mode(bool fibers, conv::BusPathMode mode) {
  util::Rng rng(42);
  std::vector<double> a(static_cast<std::size_t>(kK * kM));
  std::vector<double> b(static_cast<std::size_t>(kK * kN));
  rng.fill_normal(a, 0.0, 1.0);
  rng.fill_normal(b, 0.0, 1.0);

  ModeResult r;
  r.out.resize(static_cast<std::size_t>(kM * kN));
  sim::MeshExecutor exec;  // full 8x8 mesh
  exec.set_use_fibers(fibers);
  conv::MeshGemmOptions options;
  options.bus_mode = mode;

  for (int i = 0; i < kWarmup; ++i) {
    r.stats = conv::mesh_gemm(exec, a, b, r.out, kM, kK, kN, options);
  }
  util::Stopwatch watch;
  for (int i = 0; i < kSteps; ++i) {
    r.stats = conv::mesh_gemm(exec, a, b, r.out, kM, kK, kN, options);
  }
  const double elapsed = watch.elapsed_seconds();
  r.seconds_per_launch = elapsed / kSteps;
  r.launches_per_second =
      r.seconds_per_launch > 0 ? 1.0 / r.seconds_per_launch : 0.0;
  r.sim_gflops_per_host_second =
      elapsed > 0 ? static_cast<double>(r.stats.total_flops) * kSteps /
                        elapsed / 1e9
                  : 0.0;
  return r;
}

struct FcResult {
  double seconds_per_step = 0;
};

/// A small training-shaped workload on the mesh backend: repeated FC
/// forwards, each one a 1x1-conv API dispatch onto the executor of the
/// layer's private backend context.
FcResult run_fc_steps(int steps) {
  util::Rng rng(9);
  dnn::FullyConnected fc(128, 64, rng, dnn::FcBackend::kSimulatedMesh);
  tensor::Tensor input({128, 8});
  rng.fill_uniform(input.data(), -1, 1);
  fc.forward(input);  // warm-up: executor, fiber stacks and plan
  util::Stopwatch watch;
  for (int s = 0; s < steps; ++s) fc.forward(input);
  FcResult r;
  r.seconds_per_step = watch.elapsed_seconds() / steps;
  return r;
}

}  // namespace

int main() {
  // Baseline = the reference host strategy; optimized = the defaults.
  const ModeResult baseline =
      run_mode(/*fibers=*/false, conv::BusPathMode::kVec4Reference);
  const ModeResult optimized =
      run_mode(/*fibers=*/true, conv::BusPathMode::kBulkSpan);

  const bool outputs_identical =
      baseline.out.size() == optimized.out.size() &&
      std::memcmp(baseline.out.data(), optimized.out.data(),
                  baseline.out.size() * sizeof(double)) == 0;
  const bool stats_identical =
      baseline.stats.max_compute_cycles == optimized.stats.max_compute_cycles &&
      baseline.stats.total_flops == optimized.stats.total_flops &&
      baseline.stats.regcomm_messages == optimized.stats.regcomm_messages &&
      baseline.stats.dma.get_bytes == optimized.stats.dma.get_bytes &&
      baseline.stats.dma.put_bytes == optimized.stats.dma.put_bytes &&
      baseline.stats.dma.requests == optimized.stats.dma.requests &&
      baseline.stats.dma_seconds == optimized.stats.dma_seconds &&
      baseline.stats.compute_seconds == optimized.stats.compute_seconds &&
      baseline.stats.failed == optimized.stats.failed;
  const double speedup = optimized.seconds_per_launch > 0
                             ? baseline.seconds_per_launch /
                                   optimized.seconds_per_launch
                             : 0.0;

  const FcResult fc = run_fc_steps(10);

  std::printf("=== Simulator host throughput: 64x64x256 mesh GEMM, "
              "8x8 mesh, %d timed launches ===\n", kSteps);
  std::printf("baseline  (spawn + Vec4 loop + naive kernel): "
              "%9.3f ms/launch  %7.2f launches/s  %8.3f sim-Gflop/s per "
              "host-s\n",
              baseline.seconds_per_launch * 1e3,
              baseline.launches_per_second,
              baseline.sim_gflops_per_host_second);
  std::printf("optimized (fibers + bulk spans + blocked kernel): "
              "%7.3f ms/launch  %7.2f launches/s  %8.3f sim-Gflop/s per "
              "host-s\n",
              optimized.seconds_per_launch * 1e3,
              optimized.launches_per_second,
              optimized.sim_gflops_per_host_second);
  std::printf("wall-clock speedup: %.2fx   outputs bitwise identical: %s   "
              "stats identical: %s\n",
              speedup, outputs_identical ? "yes" : "NO",
              stats_identical ? "yes" : "NO");
  std::printf("mesh-backend FC step (persistent executor): %.3f ms/step\n",
              fc.seconds_per_step * 1e3);

  const char* path = "BENCH_sim_throughput.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"workload\": \"mesh_gemm m=%lld k=%lld n=%lld on 8x8 "
               "mesh\",\n",
               static_cast<long long>(kM), static_cast<long long>(kK),
               static_cast<long long>(kN));
  std::fprintf(f, "  \"timed_launches\": %d,\n", kSteps);
  std::fprintf(f, "  \"baseline_seconds_per_launch\": %.6f,\n",
               baseline.seconds_per_launch);
  std::fprintf(f, "  \"baseline_launches_per_second\": %.3f,\n",
               baseline.launches_per_second);
  std::fprintf(f, "  \"baseline_sim_gflops_per_host_second\": %.3f,\n",
               baseline.sim_gflops_per_host_second);
  std::fprintf(f, "  \"optimized_seconds_per_launch\": %.6f,\n",
               optimized.seconds_per_launch);
  std::fprintf(f, "  \"optimized_launches_per_second\": %.3f,\n",
               optimized.launches_per_second);
  std::fprintf(f, "  \"optimized_sim_gflops_per_host_second\": %.3f,\n",
               optimized.sim_gflops_per_host_second);
  std::fprintf(f, "  \"speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"outputs_bitwise_identical\": %s,\n",
               outputs_identical ? "true" : "false");
  std::fprintf(f, "  \"stats_identical\": %s,\n",
               stats_identical ? "true" : "false");
  std::fprintf(f, "  \"fc_mesh_step_seconds\": %.6f\n", fc.seconds_per_step);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);

  // The equivalence claim is part of the bench contract: fail loudly if
  // the fast path ever drifts from the oracle.
  return (outputs_identical && stats_identical) ? 0 : 1;
}
