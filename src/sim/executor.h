#pragma once
// SPMD kernel launcher for the simulated CPE mesh.
//
// A "kernel" is a callable executed once per CPE — the same
// single-program-multiple-data shape as real athread kernels on
// SW26010. The CpeContext a kernel receives exposes exactly the machine
// resources the paper's kernels use:
//
//   * its mesh coordinates,
//   * its private LDM (capacity-enforced),
//   * DMA get/put between "global memory" (host spans) and LDM,
//   * register communication over the row/column buses,
//   * a mesh-wide barrier (the athread sync),
//   * cycle-accounting hooks for compute work.
//
// Functional correctness never depends on the accounting; timing
// counters only feed the statistics block returned by run().
//
// Host execution strategy: each launch runs its CPE kernels as fibers
// on the calling thread, in CPE-id order (sim/fiber.h). A CPE gives up
// the thread only where it must wait — at sync(), at a Get on an empty
// bus, at a Vec4 Put on a full one — so a launch makes no OS context
// switch. The mesh, DMA engine, LDM arenas and fiber stacks persist
// across launches and are reset in place. Modeled observables (cycles,
// flops, message counts, DMA totals, traces, fault decisions) are
// charged, never measured, so they do not depend on how the host
// schedules the simulation. set_use_fibers(false) selects the
// spawn-a-thread-per-CPE-per-launch strategy, kept as the reference the
// equivalence tests and the throughput bench compare against.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>

#include "src/arch/spec.h"
#include "src/sim/dma.h"
#include "src/sim/fault.h"
#include "src/sim/fiber.h"
#include "src/sim/mesh.h"
#include "src/sim/trace.h"

namespace swdnn::sim {

class MeshExecutor;

class CpeContext {
 public:
  CpeContext(MeshExecutor& exec, CpeMesh& mesh, DmaEngine& dma, int row,
             int col);

  // --- Identity ------------------------------------------------------
  int row() const { return row_; }
  int col() const { return col_; }
  int id() const { return row_ * mesh_.cols() + col_; }
  int mesh_rows() const { return mesh_.rows(); }
  int mesh_cols() const { return mesh_.cols(); }
  const arch::Sw26010Spec& spec() const { return mesh_.spec(); }

  // --- LDM -------------------------------------------------------------
  LdmAllocator& ldm() { return cell().ldm; }

  // --- DMA (functional copy + Table II cost accounting) ----------------
  /// Contiguous MEM -> LDM transfer. dst.size() must equal src.size().
  void dma_get(std::span<const double> src, std::span<double> dst);

  /// Contiguous LDM -> MEM transfer.
  void dma_put(std::span<const double> src, std::span<double> dst);

  /// Strided gather: copies `nblocks` runs of `block_elems` doubles,
  /// source runs separated by `stride_elems`, packed densely into dst.
  /// The DMA cost uses `block_elems` as the per-block size — exactly why
  /// the paper's layouts fight for large leading dimensions.
  void dma_get_strided(const double* src_base, std::int64_t nblocks,
                       std::int64_t block_elems, std::int64_t stride_elems,
                       std::span<double> dst);

  /// Strided scatter (inverse of dma_get_strided).
  void dma_put_strided(std::span<const double> src, double* dst_base,
                       std::int64_t nblocks, std::int64_t block_elems,
                       std::int64_t stride_elems);

  // --- Register communication ------------------------------------------
  /// Sends one 256-bit register to CPE(row(), dst_col) over the row bus.
  void put_row(int dst_col, const Vec4& value);

  /// Sends one 256-bit register to CPE(dst_row, col()) over the column
  /// bus.
  void put_col(int dst_row, const Vec4& value);

  /// Broadcasts to every other CPE on this row / column (the hardware
  /// multicast the vldr/vldc-based kernels rely on).
  void bcast_row(const Vec4& value);
  void bcast_col(const Vec4& value);

  /// Receives the next message from this CPE's row/column transfer
  /// buffer (blocking).
  Vec4 get_row();
  Vec4 get_col();

  // --- Bulk register communication -------------------------------------
  /// Span-level bus primitives: broadcast/receive a whole tile of
  /// doubles as ceil(n/4) 256-bit messages. Per-message accounting
  /// (stall-fault polls, trace events, one issue cycle per broadcast,
  /// get latency per receive, regcomm message counts) is charged
  /// identically to a loop over the Vec4 primitives. Only the host-side
  /// bus traffic differs: a broadcast packs the tile once into a pooled
  /// payload that every receiver's buffer references, and a receive
  /// takes its messages under one buffer lock.
  ///
  /// A receive of `buffer.size()` doubles returns them where the
  /// broadcast left them when its messages lie in one payload (every
  /// receive of the library's kernels does), and otherwise, e.g. after
  /// Vec4 puts, copies them into `buffer` and returns that. `buffer` is
  /// the receive tile in LDM, allocated as on the machine, where a Get
  /// lands in LDM. A view stays valid until this CPE's next receive on
  /// the same bus or the end of the launch.
  void bcast_row_span(std::span<const double> data);
  void bcast_col_span(std::span<const double> data);
  [[nodiscard]] std::span<const double> recv_row_span(
      std::span<double> buffer);
  [[nodiscard]] std::span<const double> recv_col_span(
      std::span<double> buffer);

  // --- Synchronization ---------------------------------------------------
  /// Mesh-wide barrier. Every CPE of the launch must reach it: a launch
  /// where one skips it can never finish, and the fiber path aborts
  /// with a report of the blocked CPEs.
  void sync();

  // --- Timing hooks -------------------------------------------------------
  /// Charges `flops` of fully-vectorized FMA work (8 flop/cycle).
  void charge_flops(std::uint64_t flops);

  /// Charges raw cycles (for non-vector or bookkeeping work).
  /// Saturates at UINT64_MAX instead of wrapping.
  void charge_cycles(std::uint64_t cycles);

  std::uint64_t compute_cycles() const { return cell().compute_cycles; }

  // --- Fault handling -----------------------------------------------------
  /// Marks the whole launch failed (kernels keep running to drain
  /// barriers; the driver inspects LaunchStats afterwards). The first
  /// caller's message wins.
  void fail_launch(const std::string& message, bool persistent);

 private:
  CpeCell& cell() { return mesh_.cell(row_, col_); }
  const CpeCell& cell() const { return mesh_.cell(row_, col_); }
  bool block_aligned(std::int64_t bytes) const {
    return bytes % static_cast<std::int64_t>(spec().dma_alignment_bytes) == 0;
  }
  bool dma_attempt(std::uint64_t bytes, std::int64_t block_bytes,
                   perf::DmaDirection dir, bool aligned);
  bool dma_aligned(std::int64_t bytes);
  void maybe_stall_bus();
  void charge_broadcast(std::size_t messages, int fanout, const char* name);
  std::uint64_t record_dma(std::uint64_t bytes, std::int64_t block_bytes,
                           perf::DmaDirection dir, bool aligned);

  MeshExecutor& exec_;
  CpeMesh& mesh_;
  DmaEngine& dma_;
  int row_;
  int col_;
};

/// Aggregate results of one kernel launch.
struct LaunchStats {
  std::uint64_t max_compute_cycles = 0;  ///< slowest CPE's compute cycles
  std::uint64_t total_flops = 0;
  std::uint64_t regcomm_messages = 0;    ///< 256-bit bus messages
  DmaTotals dma;
  double dma_seconds = 0;      ///< Table II-costed DMA engine occupancy
  double compute_seconds = 0;  ///< max_compute_cycles / clock

  // Fault outcome of the launch (only set when an injector is attached).
  bool failed = false;           ///< a fault site exhausted its recovery
  bool persistent_fault = false; ///< retries exhausted / dead resource
  std::string failure;           ///< first failure's diagnostic
  std::uint64_t fault_events = 0;  ///< injector events during this launch
  std::uint64_t dma_retries = 0;   ///< tile transfers re-issued after faults

  /// End-to-end model. With double buffering DMA overlaps compute, so
  /// the launch takes max(compute, dma); without, they serialize.
  double modeled_seconds(bool overlap = true) const {
    return overlap ? std::max(compute_seconds, dma_seconds)
                   : compute_seconds + dma_seconds;
  }

  /// Modeled throughput in Gflop/s for this launch.
  double modeled_gflops(bool overlap = true) const {
    const double s = modeled_seconds(overlap);
    return s > 0 ? static_cast<double>(total_flops) / s / 1e9 : 0.0;
  }

  /// Bytes that travelled over register-communication buses instead of
  /// memory (the §V-A "order of magnitude" saving shows up here).
  std::uint64_t regcomm_bytes() const { return regcomm_messages * 32; }

  /// Folds the stats of a following launch into this running total, for
  /// a kernel issued as a sequence of launches: every count and modeled
  /// time sums, and the first failure's outcome is kept.
  void accumulate(const LaunchStats& next);

  /// Every field equal, the modeled times to the bit.
  bool operator==(const LaunchStats&) const = default;
};

/// The counts of one fault-free launch, tallied in closed form instead
/// of by running its kernels (conv::predict_launch). The library's
/// kernels charge every CPE the same cycles, so `cpe_cycles` is each
/// CPE's and therefore the slowest one's.
struct LaunchTally {
  std::uint64_t cpe_cycles = 0;
  std::uint64_t flops = 0;           ///< summed over the mesh
  std::uint64_t regcomm_messages = 0;
  DmaShard dma;                      ///< every CPE's requests together

  /// Adds `count` requests of `bytes` each, moved in contiguous blocks
  /// of `block_bytes`, priced and classed (128 B rule) as CpeContext
  /// prices them.
  void add_dma(const arch::Sw26010Spec& spec, std::uint64_t count,
               std::uint64_t bytes, std::int64_t block_bytes,
               perf::DmaDirection dir);

  /// The LaunchStats MeshExecutor::run reports for these counts.
  LaunchStats stats(const arch::Sw26010Spec& spec) const;
};

class MeshExecutor {
 public:
  using Kernel = std::function<void(CpeContext&)>;

  explicit MeshExecutor(const arch::Sw26010Spec& spec = arch::default_spec());

  MeshExecutor(const MeshExecutor&) = delete;
  MeshExecutor& operator=(const MeshExecutor&) = delete;

  /// Launches `kernel` once per CPE, waits for all to finish, hands the
  /// payloads that the kernels' span receives still view back to the
  /// pool, and returns the aggregated statistics. Any exception escaping
  /// a kernel aborts the process with a diagnostic: a throwing kernel is a
  /// programming error, and unwinding one CPE of a mesh that others
  /// are blocked on cannot be done safely. So does a launch that can
  /// never finish (deadlock) on the fiber path. Not reentrant: one
  /// launch at a time per executor (callers that share an executor
  /// across threads serialize externally).
  LaunchStats run(const Kernel& kernel);

  const arch::Sw26010Spec& spec() const { return spec_; }

  /// The persistent mesh state (read-only, between launches).
  const CpeMesh& mesh() const { return mesh_; }

  /// Selects the host execution strategy: CPE fibers on the launching
  /// thread (default), or one spawned thread per CPE per launch, kept
  /// as the reference. Both produce identical LaunchStats, outputs,
  /// traces, and fault behavior.
  void set_use_fibers(bool on) { use_fibers_ = on; }
  bool use_fibers() const { return use_fibers_; }

  /// Attaches an event tracer; every subsequent launch records its DMA,
  /// bus, and barrier events into it. Pass nullptr to detach. The
  /// tracer must outlive the launches it observes.
  void set_tracer(EventTracer* tracer) { tracer_ = tracer; }
  EventTracer* tracer() const { return tracer_; }

  /// Attaches a fault campaign; every subsequent launch polls it at the
  /// DMA, LDM, and register-communication sites. Pass nullptr to
  /// detach. The injector must outlive the launches it disturbs.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Bounded retry-with-backoff applied to faulting DMA tile
  /// transfers during launches on this executor.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

 private:
  friend class CpeContext;

  /// Resets mesh/DMA/failure state in place and re-attaches the fault
  /// campaign for the next launch.
  void prepare_launch();

  /// Runs one CPE's kernel with the abort-on-throw contract.
  void execute_cell(const Kernel& kernel, int row, int col);

  /// Reference strategy: spawn + join one thread per CPE, with a
  /// barrier of its own.
  void run_spawned(const Kernel& kernel);

  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  // spec_.flops_per_cycle_per_cpe(), the divisor of every charge_flops.
  std::uint64_t flops_per_cycle_;
  CpeMesh mesh_;            // persistent, reset in place per launch
  DmaEngine dma_;           // persistent, reset per launch
  FiberScheduler fibers_;   // default path: one fiber per CPE
  std::barrier<>* spawned_barrier_ = nullptr;  // reference path's launch
  EventTracer* tracer_ = nullptr;
  FaultInjector* injector_ = nullptr;
  RetryPolicy retry_;
  bool use_fibers_ = true;

  // Per-launch failure latch (reset by run()). Atomic for the reference
  // path's concurrent CPE threads.
  std::atomic<bool> failed_{false};
  std::atomic<bool> persistent_{false};
  std::atomic<std::uint64_t> dma_retries_{0};
  std::mutex failure_mutex_;
  std::string failure_;
};

}  // namespace swdnn::sim
