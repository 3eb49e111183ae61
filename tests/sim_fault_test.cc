// The fault-injection framework at the simulator level: deterministic
// replay, DMA retry-with-backoff, transient vs persistent launch
// failure, LDM capacity/bit-flip faults, regcomm stalls, and severed
// NoC links.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/conv/mesh_gemm_driver.h"
#include "src/conv/reference.h"
#include "src/conv/swconv.h"
#include "src/sim/executor.h"
#include "src/sim/fault.h"
#include "src/sim/noc.h"
#include "src/util/rng.h"

namespace swdnn::sim {
namespace {

arch::Sw26010Spec mesh_spec(int dim) {
  arch::Sw26010Spec spec = arch::default_spec();
  spec.mesh_rows = dim;
  spec.mesh_cols = dim;
  return spec;
}

/// A deterministic workload: every CPE round-trips its 32-double slice
/// of `global` through LDM (one aligned get + one aligned put).
LaunchStats run_round_trip(MeshExecutor& exec, std::vector<double>& global,
                           std::vector<double>& result) {
  return exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(32);
    const std::size_t off = static_cast<std::size_t>(ctx.id()) * 32;
    ctx.dma_get({global.data() + off, 32}, buf);
    ctx.dma_put(buf, {result.data() + off, 32});
  });
}

TEST(FaultSite, NamesAreDistinct) {
  const FaultSite sites[] = {FaultSite::kDmaTransfer, FaultSite::kDmaMisalign,
                             FaultSite::kLdmCapacity, FaultSite::kLdmBitFlip,
                             FaultSite::kRegcommStall, FaultSite::kNocLink};
  for (std::size_t a = 0; a < 6; ++a) {
    ASSERT_NE(fault_site_name(sites[a]), nullptr);
    for (std::size_t b = a + 1; b < 6; ++b) {
      EXPECT_STRNE(fault_site_name(sites[a]), fault_site_name(sites[b]));
    }
  }
}

TEST(FaultInjector, SameSeedReplaysIdenticalEventTrace) {
  // Two independent injectors with the same plan, driving the same
  // workload once on CPE fibers and once on 16 concurrent CPE threads,
  // must log exactly the same events — the determinism the replay tests
  // depend on.
  FaultPlan plan;
  plan.seed = 12345;
  plan.dma_fault_rate = 0.4;
  std::vector<std::vector<FaultEvent>> traces;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(plan);
    MeshExecutor exec(mesh_spec(4));
    exec.set_use_fibers(run == 0);
    exec.set_fault_injector(&injector);
    exec.set_retry_policy({/*max_attempts=*/8, /*backoff_cycles=*/4});
    std::vector<double> global(16 * 32, 1.0), result(16 * 32);
    run_round_trip(exec, global, result);
    traces.push_back(injector.events());
  }
  ASSERT_FALSE(traces[0].empty());
  ASSERT_EQ(traces[0].size(), traces[1].size());
  for (std::size_t i = 0; i < traces[0].size(); ++i) {
    EXPECT_EQ(traces[0][i].site, traces[1][i].site) << "event " << i;
    EXPECT_EQ(traces[0][i].unit, traces[1][i].unit) << "event " << i;
    EXPECT_EQ(traces[0][i].sequence, traces[1][i].sequence) << "event " << i;
    EXPECT_EQ(traces[0][i].detail, traces[1][i].detail) << "event " << i;
  }
}

TEST(FaultInjector, DifferentSeedsProduceDifferentPlacement) {
  FaultPlan a, b;
  a.seed = 1;
  b.seed = 2;
  a.dma_fault_rate = b.dma_fault_rate = 0.5;
  FaultInjector ia(a), ib(b);
  std::vector<bool> da, db;
  for (std::uint64_t i = 0; i < 64; ++i) {
    da.push_back(ia.poll_dma_fault(0));
    db.push_back(ib.poll_dma_fault(0));
  }
  EXPECT_NE(da, db);
}

TEST(FaultInjector, ResetReplaysTheCampaignFromTheStart) {
  FaultPlan plan;
  plan.seed = 7;
  plan.dma_fault_rate = 0.5;
  FaultInjector injector(plan);
  std::vector<bool> first;
  for (int i = 0; i < 32; ++i) first.push_back(injector.poll_dma_fault(3));
  EXPECT_GT(injector.total_events(), 0u);
  injector.reset();
  EXPECT_EQ(injector.total_events(), 0u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(injector.poll_dma_fault(3), first[static_cast<std::size_t>(i)])
        << "poll " << i;
  }
}

TEST(FaultInjector, EventsSortedBySiteUnitSequence) {
  FaultPlan plan;
  plan.seed = 9;
  plan.dma_fault_rate = 0.6;
  plan.regcomm_stall_rate = 0.6;
  FaultInjector injector(plan);
  for (int cpe = 3; cpe >= 0; --cpe) {
    for (int i = 0; i < 8; ++i) {
      injector.poll_dma_fault(cpe);
      injector.poll_regcomm_stall(cpe);
    }
  }
  const auto events = injector.events();
  ASSERT_GT(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    const auto key = [](const FaultEvent& e) {
      return std::tuple(static_cast<int>(e.site), e.unit, e.sequence);
    };
    EXPECT_LT(key(events[i - 1]), key(events[i])) << "event " << i;
  }
}

TEST(DmaFaults, TransientFaultsAreAbsorbedByRetries) {
  // The first two DMA attempts on every CPE fault; with four attempts
  // allowed the transfers all land and the data is untouched.
  FaultPlan plan;
  plan.fail_first_dma = 2;
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  exec.set_retry_policy({/*max_attempts=*/4, /*backoff_cycles=*/16});
  std::vector<double> global(4 * 32), result(4 * 32);
  for (std::size_t i = 0; i < global.size(); ++i) {
    global[i] = static_cast<double>(i);
  }
  const LaunchStats stats = run_round_trip(exec, global, result);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.dma_retries, 4u * 2u);  // 2 retried transfers per CPE
  EXPECT_GT(stats.fault_events, 0u);
  EXPECT_EQ(injector.count(FaultSite::kDmaTransfer), 4u * 2u);
  EXPECT_EQ(result, global);
}

TEST(DmaFaults, ExhaustedRetriesMarkTheLaunchPersistentlyFailed) {
  FaultPlan plan;
  plan.fail_first_dma = 100;  // every attempt the policy allows faults
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  exec.set_retry_policy({/*max_attempts=*/3, /*backoff_cycles=*/16});
  std::vector<double> global(4 * 32, 1.0), result(4 * 32, 0.0);
  const LaunchStats stats = run_round_trip(exec, global, result);
  EXPECT_TRUE(stats.failed);
  EXPECT_TRUE(stats.persistent_fault);
  EXPECT_FALSE(stats.failure.empty());
}

TEST(DmaFaults, SingleFaultWithoutRetryPolicyIsTransient) {
  // max_attempts=1 means the policy never retried: the failure is a
  // one-shot transient, not an exhausted-retries persistent fault.
  FaultPlan plan;
  plan.fail_first_dma = 1;
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  std::vector<double> global(4 * 32, 1.0), result(4 * 32, 0.0);
  const LaunchStats stats = run_round_trip(exec, global, result);
  EXPECT_TRUE(stats.failed);
  EXPECT_FALSE(stats.persistent_fault);
}

TEST(DmaFaults, MisalignFaultsDegradeDmaBandwidth) {
  std::vector<double> global(4 * 32, 1.0), result(4 * 32);
  MeshExecutor clean(mesh_spec(2));
  const double clean_seconds = run_round_trip(clean, global, result)
                                   .dma_seconds;

  FaultPlan plan;
  plan.dma_misalign_rate = 1.0;
  FaultInjector injector(plan);
  MeshExecutor faulty(mesh_spec(2));
  faulty.set_fault_injector(&injector);
  const LaunchStats stats = run_round_trip(faulty, global, result);
  EXPECT_FALSE(stats.failed);  // misalignment is slow, not wrong
  EXPECT_GT(stats.dma_seconds, clean_seconds);
  EXPECT_GT(injector.count(FaultSite::kDmaMisalign), 0u);
  EXPECT_EQ(result, global);
}

TEST(LdmFaults, CapacityLossFailsAllocationsInTheDeadRegion) {
  // 60 KB of each 64 KB arena is dead: an 8 KB allocation crosses the
  // 4 KB boundary, reports the fault, and the launch is marked failed —
  // but the kernel keeps running (it must drain its barriers).
  FaultPlan plan;
  plan.ldm_capacity_loss_bytes = 60 * 1024;
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  std::atomic<int> completed{0};
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(1024);
    buf[0] = 1.0;
    completed.fetch_add(1);
  });
  EXPECT_TRUE(stats.failed);
  EXPECT_TRUE(stats.persistent_fault);
  EXPECT_EQ(injector.count(FaultSite::kLdmCapacity), 4u);
  EXPECT_EQ(completed.load(), 4);
}

TEST(LdmFaults, BitFlipPoisonsOneWordOfAFreshAllocation) {
  FaultPlan plan;
  plan.ldm_bitflip_rate = 1.0;
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  std::atomic<int> poisoned{0};
  const LaunchStats stats = exec.run([&](CpeContext& ctx) {
    auto buf = ctx.ldm().alloc_doubles(8);
    if (std::isnan(buf[4])) poisoned.fetch_add(1);
  });
  EXPECT_TRUE(stats.failed);
  EXPECT_EQ(poisoned.load(), 4);
  EXPECT_EQ(injector.count(FaultSite::kLdmBitFlip), 4u);
}

TEST(RegcommFaults, StallsChargeExtraCycles) {
  const auto ring_kernel = [](CpeContext& ctx) {
    // Each CPE sends right around its row ring and receives one value.
    const Vec4 v{1, 2, 3, 4};
    ctx.put_row((ctx.col() + 1) % ctx.mesh_cols(), v);
    ctx.get_row();
  };
  MeshExecutor clean(mesh_spec(2));
  const std::uint64_t clean_cycles = clean.run(ring_kernel).max_compute_cycles;

  FaultPlan plan;
  plan.regcomm_stall_rate = 1.0;
  plan.regcomm_stall_cycles = 5000;
  FaultInjector injector(plan);
  MeshExecutor faulty(mesh_spec(2));
  faulty.set_fault_injector(&injector);
  const LaunchStats stats = faulty.run(ring_kernel);
  EXPECT_FALSE(stats.failed);  // a stall delays, it does not corrupt
  EXPECT_GE(stats.max_compute_cycles, clean_cycles + 5000);
  EXPECT_EQ(injector.count(FaultSite::kRegcommStall), 4u);
}

/// A small filter-grained forward problem for the multi-CG NoC tests:
/// 4 output rows, so every core group of a 2- or 4-CG run owns rows.
struct MultiCgConv {
  conv::ConvShape shape = conv::ConvShape::from_output(2, 3, 5, 4, 4, 3, 3);
  tensor::Tensor in = conv::make_input(shape);
  tensor::Tensor w = conv::make_filter(shape);
  MultiCgConv() {
    util::Rng rng(17);
    rng.fill_uniform(in.data(), -1, 1);
    rng.fill_uniform(w.data(), -1, 1);
  }
};

TEST(NocFaults, SeveredLinkFailsThePartitionedLaunchUpFront) {
  FaultPlan plan;
  plan.dead_noc_links = {1};
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.poll_noc_link(0));
  EXPECT_TRUE(injector.poll_noc_link(1));

  conv::SwConvolution sw(mesh_spec(2));
  sw.set_fault_injector(&injector);
  const MultiCgConv p;
  tensor::Tensor out = conv::make_output(p.shape);
  util::Rng(18).fill_uniform(out.data(), -1, 1);
  const tensor::Tensor before = out;
  try {
    sw.forward_multi_cg(p.in, p.w, out, p.shape, 2);
    FAIL() << "expected LaunchFault";
  } catch (const LaunchFault& e) {
    EXPECT_TRUE(e.persistent());
  }
  EXPECT_GT(injector.count(FaultSite::kNocLink), 0u);
  // The link is polled before any core group launches: not one row of
  // the output was written.
  ASSERT_EQ(out.size(), before.size());
  EXPECT_EQ(std::memcmp(out.data().data(), before.data().data(),
                        static_cast<std::size_t>(out.size()) * sizeof(double)),
            0);
}

TEST(RetryBackoff, MatchesNaiveShiftInTheSafeRange) {
  const RetryPolicy policy{/*max_attempts=*/8, /*backoff_cycles=*/16};
  EXPECT_EQ(retry_backoff_cycles(policy, 1), 16u);
  EXPECT_EQ(retry_backoff_cycles(policy, 2), 32u);
  EXPECT_EQ(retry_backoff_cycles(policy, 5), 256u);
}

TEST(RetryBackoff, SaturatesInsteadOfOverflowing) {
  // backoff_cycles << (attempt-1) is UB once the shift reaches 64 and
  // silently wraps before that; the helper must saturate instead.
  const RetryPolicy policy{/*max_attempts=*/200, /*backoff_cycles=*/16};
  EXPECT_EQ(retry_backoff_cycles(policy, 60), 16ull << 59);  // 2^63: last fit
  EXPECT_EQ(retry_backoff_cycles(policy, 61), UINT64_MAX);   // 2^64 wraps
  EXPECT_EQ(retry_backoff_cycles(policy, 65), UINT64_MAX);   // shift == 64
  EXPECT_EQ(retry_backoff_cycles(policy, 1000), UINT64_MAX);
  const RetryPolicy zero{/*max_attempts=*/200, /*backoff_cycles=*/0};
  EXPECT_EQ(retry_backoff_cycles(zero, 1000), 0u);
  const RetryPolicy max{/*max_attempts=*/200, /*backoff_cycles=*/UINT64_MAX};
  EXPECT_EQ(retry_backoff_cycles(max, 2), UINT64_MAX);
}

TEST(RetryBackoff, DeepRetryLaddersRunWithoutOverflow) {
  // A policy deep enough that the old shift was undefined behaviour:
  // the launch must complete (failed, retries exhausted) with the CPE
  // cycle counters pinned at saturation rather than wrapped.
  FaultPlan plan;
  plan.fail_first_dma = 1000;  // every attempt faults
  FaultInjector injector(plan);
  MeshExecutor exec(mesh_spec(2));
  exec.set_fault_injector(&injector);
  exec.set_retry_policy({/*max_attempts=*/80, /*backoff_cycles=*/16});
  std::vector<double> global(4 * 32, 1.0), result(4 * 32, 0.0);
  const LaunchStats stats = run_round_trip(exec, global, result);
  EXPECT_TRUE(stats.failed);
  EXPECT_TRUE(stats.persistent_fault);
  // Both the get and the put exhaust their 80 attempts on every CPE.
  EXPECT_EQ(stats.dma_retries, 4u * 79u * 2u);
  EXPECT_EQ(stats.max_compute_cycles, UINT64_MAX);  // saturated, not wrapped
}

// -- Fault equivalence of the bulk bus path ---------------------------------
//
// The bulk span primitives poll the stall site once per 256-bit message,
// exactly like the Vec4 reference loop, so an identical campaign must
// produce an identical event trace and identical stats on both paths.

LaunchStats run_faulty_mesh_gemm(FaultInjector& injector, bool fibers,
                                 conv::BusPathMode mode,
                                 std::vector<double>& out) {
  util::Rng rng(21);
  const std::int64_t m = 13, k = 29, n = 11;
  std::vector<double> a(static_cast<std::size_t>(k * m));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill_normal(a, 0.0, 1.0);
  rng.fill_normal(b, 0.0, 1.0);
  out.assign(static_cast<std::size_t>(m * n), 0.0);
  MeshExecutor exec(mesh_spec(4));
  exec.set_use_fibers(fibers);
  exec.set_fault_injector(&injector);
  exec.set_retry_policy({/*max_attempts=*/4, /*backoff_cycles=*/8});
  conv::MeshGemmOptions options;
  options.bus_mode = mode;
  return conv::mesh_gemm(exec, a, b, out, m, k, n, options);
}

void expect_same_events(const std::vector<FaultEvent>& a,
                        const std::vector<FaultEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].site, b[i].site) << "event " << i;
    EXPECT_EQ(a[i].unit, b[i].unit) << "event " << i;
    EXPECT_EQ(a[i].sequence, b[i].sequence) << "event " << i;
    EXPECT_EQ(a[i].detail, b[i].detail) << "event " << i;
  }
}

// Every LaunchStats field, exactly.
void expect_same_stats(const LaunchStats& a, const LaunchStats& b) {
  EXPECT_EQ(a.max_compute_cycles, b.max_compute_cycles);
  EXPECT_EQ(a.total_flops, b.total_flops);
  EXPECT_EQ(a.regcomm_messages, b.regcomm_messages);
  EXPECT_EQ(a.dma.get_bytes, b.dma.get_bytes);
  EXPECT_EQ(a.dma.put_bytes, b.dma.put_bytes);
  EXPECT_EQ(a.dma.requests, b.dma.requests);
  EXPECT_EQ(a.dma.misaligned_requests, b.dma.misaligned_requests);
  EXPECT_EQ(a.dma_seconds, b.dma_seconds);
  EXPECT_EQ(a.compute_seconds, b.compute_seconds);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.persistent_fault, b.persistent_fault);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.fault_events, b.fault_events);
  EXPECT_EQ(a.dma_retries, b.dma_retries);
}

TEST(BulkPathFaults, StallCampaignIdenticalOnBulkAndReferencePaths) {
  FaultPlan plan;
  plan.seed = 99;
  plan.regcomm_stall_rate = 0.1;
  plan.regcomm_stall_cycles = 128;
  FaultInjector injector(plan);

  std::vector<double> out_bulk, out_ref;
  const LaunchStats bulk = run_faulty_mesh_gemm(
      injector, /*fibers=*/true, conv::BusPathMode::kBulkSpan, out_bulk);
  const auto events_bulk = injector.events();
  injector.reset();  // replay the identical campaign on the oracle path
  const LaunchStats ref =
      run_faulty_mesh_gemm(injector, /*fibers=*/false,
                           conv::BusPathMode::kVec4Reference, out_ref);
  const auto events_ref = injector.events();

  ASSERT_GT(events_bulk.size(), 0u);
  expect_same_events(events_bulk, events_ref);
  EXPECT_EQ(out_bulk, out_ref);
  expect_same_stats(bulk, ref);
}

TEST(BulkPathFaults, DmaAndLdmCampaignIdenticalOnBulkAndReferencePaths) {
  FaultPlan plan;
  plan.seed = 5;
  plan.dma_fault_rate = 0.05;
  plan.dma_misalign_rate = 0.1;
  plan.regcomm_stall_rate = 0.05;
  FaultInjector injector(plan);

  std::vector<double> out_bulk, out_ref;
  const LaunchStats bulk = run_faulty_mesh_gemm(
      injector, /*fibers=*/true, conv::BusPathMode::kBulkSpan, out_bulk);
  const auto events_bulk = injector.events();
  injector.reset();
  const LaunchStats ref =
      run_faulty_mesh_gemm(injector, /*fibers=*/false,
                           conv::BusPathMode::kVec4Reference, out_ref);
  const auto events_ref = injector.events();

  ASSERT_GT(events_bulk.size(), 0u);
  expect_same_events(events_bulk, events_ref);
  EXPECT_EQ(out_bulk, out_ref);
  expect_same_stats(bulk, ref);
}

TEST(NocFaults, HealthyLinksStillRun) {
  FaultPlan plan;
  plan.dead_noc_links = {3};  // only CG 3 is dead; a 2-CG run is fine
  FaultInjector injector(plan);
  conv::SwConvolution sw(mesh_spec(2));
  sw.set_fault_injector(&injector);
  const MultiCgConv p;
  tensor::Tensor out = conv::make_output(p.shape);
  const MultiCgStats stats = sw.forward_multi_cg(p.in, p.w, out, p.shape, 2);
  EXPECT_EQ(stats.per_cg.size(), 2u);
  tensor::Tensor expected = conv::make_output(p.shape);
  conv::reference_forward(p.in, p.w, expected, p.shape);
  EXPECT_EQ(expected.max_abs_diff(out), 0.0);
}

}  // namespace
}  // namespace swdnn::sim
