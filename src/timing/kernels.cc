#include "src/timing/kernels.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

namespace swdnn::timing {

namespace {

// Register map. Accumulators hold the 4x4 output tile; A/B register sets
// are double-buffered by iteration parity so next-iteration loads carry
// no WAW hazard against in-flight consumers.
constexpr int kAcc = 0;              // C[j][k] = kAcc + 4*j + k  (0..15)
constexpr int kA[2] = {16, 20};      // A[0..3] per parity
constexpr int kB[2] = {24, 28};      // B[0..3] per parity
constexpr int kFlag = 40;            // cmp result
constexpr int kCounter = 41;         // loop counter (set outside the loop)
constexpr int kAddr = 100;           // address register (always ready)

int acc_reg(int j, int k) { return kAcc + 4 * j + k; }

}  // namespace

arch::InstructionStream original_stream(int iterations) {
  arch::InstructionStream s;
  for (int i = 0; i < iterations; ++i) {
    // Single register set: the compiler's schedule reloads in place.
    for (int j = 0; j < 4; ++j) s.push_back(arch::make_vload(kA[0] + j, kAddr));
    for (int k = 0; k < 4; ++k) s.push_back(arch::make_vldde(kB[0] + k, kAddr));
    s.push_back(arch::make_cmp(kFlag, kCounter));
    s.push_back(arch::make_branch(kFlag));
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        s.push_back(arch::make_vfmad(acc_reg(j, k), kA[0] + j, kB[0] + k));
      }
    }
  }
  return s;
}

arch::InstructionStream reordered_stream(int iterations) {
  arch::InstructionStream s;
  // Prologue: B[0] first, then A[0..3] — the first vfmad can then issue
  // at cycle 6 (4 cycles after A[0]'s load).
  s.push_back(arch::make_vldde(kB[0] + 0, kAddr));
  for (int j = 0; j < 4; ++j) s.push_back(arch::make_vload(kA[0] + j, kAddr));

  for (int i = 0; i < iterations; ++i) {
    const int p = i % 2;      // current register parity
    const int q = 1 - p;      // next iteration's parity
    const bool last = (i + 1 == iterations);

    // FMAs walk k-major so each B[k] has its 4-cycle load-to-use
    // distance; P1 partners ride in the FMAs' shadow.
    auto fma = [&s, p](int j, int k) {
      s.push_back(arch::make_vfmad(acc_reg(j, k), kA[p] + j, kB[p] + k));
    };

    fma(0, 0);
    s.push_back(arch::make_vldde(kB[p] + 1, kAddr));
    fma(1, 0);
    s.push_back(arch::make_vldde(kB[p] + 2, kAddr));
    fma(2, 0);
    s.push_back(arch::make_vldde(kB[p] + 3, kAddr));
    fma(3, 0);
    if (!last) s.push_back(arch::make_vload(kA[q] + 0, kAddr));
    fma(0, 1);
    if (!last) s.push_back(arch::make_vload(kA[q] + 1, kAddr));
    fma(1, 1);
    if (!last) s.push_back(arch::make_vload(kA[q] + 2, kAddr));
    fma(2, 1);
    if (!last) s.push_back(arch::make_vload(kA[q] + 3, kAddr));
    fma(3, 1);
    if (!last) s.push_back(arch::make_vldde(kB[q] + 0, kAddr));
    fma(0, 2);
    if (!last) s.push_back(arch::make_cmp(kFlag, kCounter));
    fma(1, 2);
    fma(2, 2);
    fma(3, 2);
    fma(0, 3);
    fma(1, 3);
    fma(2, 3);
    fma(3, 3);
    if (!last) s.push_back(arch::make_branch(kFlag));
  }
  return s;
}

double ee_original_closed_form() { return 16.0 / 26.0; }

std::uint64_t cycles_reordered_closed_form(int iterations) {
  if (iterations <= 0) return 0;
  return 5 + static_cast<std::uint64_t>(iterations - 1) * 17 + 16;
}

double ee_reordered_closed_form(std::int64_t ni) {
  const int n = inner_iterations_for_channels(ni);
  if (n <= 0) return 0.0;
  return static_cast<double>(n) * 16.0 /
         static_cast<double>(cycles_reordered_closed_form(n));
}

int inner_iterations_for_channels(std::int64_t ni) {
  return static_cast<int>(std::max<std::int64_t>(ni / 8, 1));
}

double simulated_ee(std::int64_t ni, bool reordered) {
  // Replaying the ~24n-instruction stream dominates a model estimate,
  // and plan ranking asks for the same few trip counts over and over.
  // The result depends on (n, reordered) alone, so it is computed once.
  static std::mutex mutex;
  static std::map<std::pair<int, bool>, double> memo;
  const std::pair<int, bool> key{inner_iterations_for_channels(ni),
                                 reordered};
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = memo.find(key); it != memo.end()) return it->second;
  }
  DualPipelineSimulator sim;
  const auto stream =
      reordered ? reordered_stream(key.first) : original_stream(key.first);
  const double ee = sim.simulate(stream).execution_efficiency();
  std::lock_guard<std::mutex> lock(mutex);
  memo.emplace(key, ee);
  return ee;
}

}  // namespace swdnn::timing
