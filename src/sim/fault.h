#pragma once
// Deterministic fault injection for the simulated SW26010.
//
// A production deployment cannot assume a perfect machine: DMA engines
// drop or misalign transfers, LDM cells lose capacity or flip bits,
// buses stall, and NoC links die. This module lets tests and resilience
// campaigns inject exactly those failures into the simulator in a
// reproducible way, so the retry/fallback machinery above the simulator
// can be exercised and verified.
//
// Determinism is the load-bearing property. A launch runs its 64 CPE
// kernels as fibers on the launching thread; only the spawned-thread
// reference runs them concurrently. Either way a shared RNG stream
// would tie fault placement to the order in which CPEs reach their
// fault sites. Instead, every decision is a
// pure function of (plan seed, fault site, unit id, per-unit sequence
// number): each site keeps an atomic per-unit counter, and the decision
// draws from a util::Rng seeded by a hash of those four values. The
// same plan over the same workload therefore yields the same FaultEvent
// trace on every run, regardless of scheduling.
//
// Fault sites never throw inside CPE kernels (MeshExecutor aborts on a
// throwing kernel, by design): a fault either degrades timing, retries
// in place under the executor's RetryPolicy, or marks the launch failed
// so the host-side driver can fall back after the launch drains.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace swdnn::sim {

enum class FaultSite {
  kDmaTransfer = 0,  ///< a DMA request's payload fails to land
  kDmaMisalign,      ///< a request is serviced at the misaligned rate
  kLdmCapacity,      ///< part of a CPE's LDM arena is marked dead
  kLdmBitFlip,       ///< a freshly allocated LDM word is corrupted
  kRegcommStall,     ///< a bus put/get stalls for extra cycles
  kNocLink,          ///< the link to one core group is down
};

const char* fault_site_name(FaultSite site);

/// One injected fault, in the order decided (not observed): `unit` is
/// the CPE id for on-mesh sites and the core-group id for kNocLink;
/// `sequence` is the per-(site, unit) injection index.
struct FaultEvent {
  FaultSite site = FaultSite::kDmaTransfer;
  int unit = 0;
  std::uint64_t sequence = 0;
  std::string detail;
};

/// Configuration of an injection campaign. Rates are per-operation
/// probabilities in [0, 1]; the deterministic `fail_first_dma` knob
/// faults the first N DMA transfer attempts on every CPE and is what
/// the retry tests use (N faults, then guaranteed success).
struct FaultPlan {
  std::uint64_t seed = 0;

  double dma_fault_rate = 0.0;
  std::uint64_t fail_first_dma = 0;
  double dma_misalign_rate = 0.0;

  std::size_t ldm_capacity_loss_bytes = 0;
  double ldm_bitflip_rate = 0.0;

  double regcomm_stall_rate = 0.0;
  std::uint64_t regcomm_stall_cycles = 64;

  std::vector<int> dead_noc_links;  ///< core groups with a severed link
};

/// Bounded retry-with-backoff applied at the fault site (one DMA tile
/// transfer), not the whole launch: attempt k of a faulting transfer
/// charges `backoff_cycles << (k-1)` before re-issuing. A transfer that
/// faults on all `max_attempts` tries marks the launch failed.
struct RetryPolicy {
  int max_attempts = 1;             ///< 1 = no retry
  std::uint64_t backoff_cycles = 16;
};

/// Backoff charged before re-issuing attempt `attempt` (1-based) of a
/// faulting transfer: policy.backoff_cycles << (attempt - 1), with the
/// exponent capped at 63 and the result saturating at UINT64_MAX. The
/// naive shift is undefined behaviour once attempt exceeds 64 (any
/// RetryPolicy with a large max_attempts), and silently wraps before
/// that; a saturated backoff just pins the CPE's cycle counter, which
/// charge_cycles also saturates.
std::uint64_t retry_backoff_cycles(const RetryPolicy& policy, int attempt);

/// Thrown by host-side drivers when a launch (or a NoC route) reports
/// an injected fault it could not absorb. `persistent()` distinguishes
/// exhausted-retries / dead-link faults from single transient hits.
class LaunchFault : public std::runtime_error {
 public:
  LaunchFault(const std::string& what, bool persistent)
      : std::runtime_error(what), persistent_(persistent) {}
  bool persistent() const { return persistent_; }

 private:
  bool persistent_;
};

/// The stateful injection engine for one campaign. Attach to a
/// MeshExecutor (SwConvolution's forward_multi_cg also polls its NoC
/// links); poll_* methods advance the per-unit
/// sequence counter for their site, decide deterministically, and log a
/// FaultEvent when they fire. Thread-safe: the spawned-thread
/// reference's CPE threads poll concurrently.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// Does this DMA transfer attempt on `cpe` fail?
  bool poll_dma_fault(int cpe);

  /// Is this DMA request forced to the misaligned bandwidth curve?
  bool poll_dma_misalign(int cpe);

  /// Bytes of `cpe`'s LDM arena that are dead this campaign.
  std::size_t ldm_capacity_loss() const {
    return plan_.ldm_capacity_loss_bytes;
  }

  /// Records a capacity-fault event for `cpe` (called by the allocator
  /// when an allocation lands in the dead region).
  void report_ldm_capacity_fault(int cpe, std::size_t requested_bytes);

  /// Does this LDM allocation on `cpe` suffer a bit flip?
  bool poll_ldm_bitflip(int cpe);

  /// Cycles this bus operation on `cpe` stalls (0 = no stall).
  std::uint64_t poll_regcomm_stall(int cpe);

  /// Is the NoC link to core group `cg` severed? Records an event per
  /// query that hits a dead link.
  bool poll_noc_link(int cg);

  /// All injected events, sorted by (site, unit, sequence) so two runs
  /// of the same campaign compare equal independent of thread timing.
  std::vector<FaultEvent> events() const;

  /// Number of injected events at `site`.
  std::uint64_t count(FaultSite site) const;

  std::uint64_t total_events() const;

  /// Forgets events and resets every sequence counter: the next poll
  /// replays the campaign from the start.
  void reset();

 private:
  static constexpr int kNumSites = 6;
  static constexpr int kMaxUnits = 64;

  /// Pure function of (seed, site, unit, seq): true with probability
  /// `rate`.
  bool decide(FaultSite site, int unit, std::uint64_t seq, double rate) const;

  std::uint64_t next_sequence(FaultSite site, int unit);
  void record(FaultSite site, int unit, std::uint64_t seq,
              std::string detail);

  FaultPlan plan_;
  std::array<std::array<std::atomic<std::uint64_t>, kMaxUnits>, kNumSites>
      sequence_{};
  std::array<std::atomic<std::uint64_t>, kNumSites> counts_{};
  mutable std::mutex mutex_;
  std::vector<FaultEvent> events_;
};

}  // namespace swdnn::sim
