#pragma once
// Instruction streams for the register-blocked GEMM inner loop.
//
// The inner kernel computes a 4x4 outer-product update: 16 vfmad on 4
// image vectors A[0..3] and 4 replicated filter vectors B[0..3] (the
// rbB=16, rbNo=4 register blocking of Eq. 5 — 16 batch elements are four
// 4-lane vectors). One loop iteration therefore needs 8 loads, a compare,
// a branch, and 16 vfmads.
//
// Two schedules are provided:
//   * original_stream  — the compiler's order (Fig. 6 left): all loads,
//     then the loop test, then the FMAs. 26 cycles per iteration.
//   * reordered_stream — the paper's Section VI schedule (Fig. 6 right):
//     B[1..3] of the current iteration and A'[0..3], B'[0] of the next
//     iteration are dual-issued in the shadow of the FMAs, giving a
//     5-cycle prologue, 17-cycle steady-state iterations, and a 16-cycle
//     exit: cycles(n) = 5 + (n-1)*17 + 16.

#include <cstdint>

#include "src/arch/isa.h"
#include "src/timing/pipeline.h"

namespace swdnn::timing {

/// The compiler-ordered inner loop, unrolled for `iterations`.
arch::InstructionStream original_stream(int iterations);

/// The hand-reordered inner loop, unrolled for `iterations`.
arch::InstructionStream reordered_stream(int iterations);

/// Paper closed form: EE of the original schedule (16/26 ~ 61.5%).
double ee_original_closed_form();

/// Paper closed form: cycles of the reordered schedule for n iterations.
std::uint64_t cycles_reordered_closed_form(int iterations);

/// Paper closed form: EE(Ni) = (Ni/8*16) / (5 + (Ni/8-1)*17 + 16).
/// Ni is the input-channel count; each CPE's inner loop runs Ni/8
/// iterations (its column of the mesh holds Ni/8 channels).
double ee_reordered_closed_form(std::int64_t ni);

/// Iteration count of the inner loop for a given input-channel count.
int inner_iterations_for_channels(std::int64_t ni);

/// Simulated EE for a schedule at a given channel count — what the
/// performance model uses. `reordered` selects the schedule. Each
/// (inner-iteration count, schedule) pair is simulated once per process
/// and remembered; safe to call from several threads.
double simulated_ee(std::int64_t ni, bool reordered);

}  // namespace swdnn::timing
