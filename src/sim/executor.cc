#include "src/sim/executor.h"

#include "src/arch/isa.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace swdnn::sim {

CpeContext::CpeContext(MeshExecutor& exec, CpeMesh& mesh, DmaEngine& dma,
                       int row, int col)
    : exec_(exec), mesh_(mesh), dma_(dma), row_(row), col_(col) {}

namespace {
void record_event(EventTracer& tracer, const CpeCell& cell, int cpe,
                  const char* category, std::string name,
                  std::uint64_t duration_cycles) {
  const std::uint64_t now = cell.compute_cycles;
  tracer.record(cpe, category, std::move(name), now, now + duration_cycles);
}

// Trace helper: logical timeline = the CPE's compute-cycle counter.
// `name` is a string or a callable that builds one, called only when a
// tracer is attached, so an untraced launch formats no names. Inlined,
// so that an untraced event costs one test of the tracer pointer.
template <typename Name>
[[gnu::always_inline]] inline void trace_event(MeshExecutor& exec,
                                               CpeCell& cell, int cpe,
                                               const char* category,
                                               const Name& name,
                                               std::uint64_t duration_cycles) {
  EventTracer* tracer = exec.tracer();
  if (tracer == nullptr) return;
  if constexpr (std::is_invocable_v<const Name&>) {
    record_event(*tracer, cell, cpe, category, name(), duration_cycles);
  } else {
    record_event(*tracer, cell, cpe, category, name, duration_cycles);
  }
}
}  // namespace

void CpeContext::fail_launch(const std::string& message, bool persistent) {
  if (persistent) exec_.persistent_.store(true, std::memory_order_relaxed);
  bool expected = false;
  if (exec_.failed_.compare_exchange_strong(expected, true)) {
    std::lock_guard<std::mutex> lock(exec_.failure_mutex_);
    exec_.failure_ = message;
  }
  trace_event(exec_, cell(), id(), "fault", message, 1);
}

// Computes the Table II cost of one request and accounts it into this
// CPE's private shard; the executor folds the shards into the shared
// engine once per launch (contention relief: no shared atomics on the
// per-transfer path).
std::uint64_t CpeContext::record_dma(std::uint64_t bytes,
                                     std::int64_t block_bytes,
                                     perf::DmaDirection dir, bool aligned) {
  const std::uint64_t cost = dma_.cost(bytes, block_bytes, dir, aligned);
  cell().dma.add(bytes, dir, aligned, cost);
  return cost;
}

// Polls the attached fault campaign for one DMA tile transfer and
// applies the executor's RetryPolicy in place: a faulting attempt is
// re-issued (re-charged against the DMA engine, with exponential
// backoff cycles) until it lands or attempts run out. Returns true when
// the payload may be copied — on exhaustion the launch is marked failed
// and the copy is skipped, exactly like a real engine reporting a
// completion error. Never throws: peers may be blocked on barriers.
bool CpeContext::dma_attempt(std::uint64_t bytes, std::int64_t block_bytes,
                             perf::DmaDirection dir, bool aligned) {
  FaultInjector* fi = exec_.fault_injector();
  if (fi == nullptr) return true;
  const RetryPolicy& rp = exec_.retry_policy();
  const int max_attempts = rp.max_attempts < 1 ? 1 : rp.max_attempts;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (!fi->poll_dma_fault(id())) return true;
    trace_event(exec_, cell(), id(), "fault", [attempt] {
      return "dma fault (attempt " + std::to_string(attempt) + ")";
    }, 1);
    if (attempt == max_attempts) break;
    // Retry the tile: back off, then re-occupy the engine for the
    // repeated transfer.
    charge_cycles(retry_backoff_cycles(rp, attempt));
    record_dma(bytes, block_bytes, dir, aligned);
    exec_.dma_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  fail_launch("persistent DMA fault on CPE " + std::to_string(id()) +
                  " after " + std::to_string(max_attempts) + " attempts",
              /*persistent=*/max_attempts > 1);
  return false;
}

// Whether this request is forced onto the misaligned bandwidth curve by
// an injected alignment fault.
bool CpeContext::dma_aligned(std::int64_t bytes) {
  bool aligned = block_aligned(bytes);
  FaultInjector* fi = exec_.fault_injector();
  if (aligned && fi != nullptr && fi->poll_dma_misalign(id())) {
    aligned = false;
  }
  return aligned;
}

void CpeContext::dma_get(std::span<const double> src, std::span<double> dst) {
  const std::int64_t bytes = static_cast<std::int64_t>(src.size_bytes());
  const bool aligned = dma_aligned(bytes);
  const std::uint64_t cost =
      record_dma(src.size_bytes(), bytes, perf::DmaDirection::kGet, aligned);
  trace_event(exec_, cell(), id(), "dma",
              [bytes] { return "get " + std::to_string(bytes) + "B"; }, cost);
  if (!dma_attempt(src.size_bytes(), bytes, perf::DmaDirection::kGet,
                   aligned)) {
    return;
  }
  std::copy(src.begin(), src.end(), dst.begin());
}

void CpeContext::dma_put(std::span<const double> src, std::span<double> dst) {
  const std::int64_t bytes = static_cast<std::int64_t>(src.size_bytes());
  const bool aligned = dma_aligned(bytes);
  const std::uint64_t cost =
      record_dma(src.size_bytes(), bytes, perf::DmaDirection::kPut, aligned);
  trace_event(exec_, cell(), id(), "dma",
              [bytes] { return "put " + std::to_string(bytes) + "B"; }, cost);
  if (!dma_attempt(src.size_bytes(), bytes, perf::DmaDirection::kPut,
                   aligned)) {
    return;
  }
  std::copy(src.begin(), src.end(), dst.begin());
}

void CpeContext::dma_get_strided(const double* src_base, std::int64_t nblocks,
                                 std::int64_t block_elems,
                                 std::int64_t stride_elems,
                                 std::span<double> dst) {
  const std::int64_t block_bytes = block_elems * 8;
  const bool aligned = dma_aligned(block_bytes);
  const std::uint64_t cost = record_dma(
      static_cast<std::uint64_t>(nblocks * block_bytes), block_bytes,
      perf::DmaDirection::kGet, aligned);
  trace_event(exec_, cell(), id(), "dma", [nblocks, block_bytes] {
    return "get-strided " + std::to_string(nblocks) + "x" +
           std::to_string(block_bytes) + "B";
  }, cost);
  if (!dma_attempt(static_cast<std::uint64_t>(nblocks * block_bytes),
                   block_bytes, perf::DmaDirection::kGet, aligned)) {
    return;
  }
  for (std::int64_t b = 0; b < nblocks; ++b) {
    const double* src = src_base + b * stride_elems;
    std::copy(src, src + block_elems, dst.begin() + b * block_elems);
  }
}

void CpeContext::dma_put_strided(std::span<const double> src, double* dst_base,
                                 std::int64_t nblocks,
                                 std::int64_t block_elems,
                                 std::int64_t stride_elems) {
  const std::int64_t block_bytes = block_elems * 8;
  const bool aligned = dma_aligned(block_bytes);
  const std::uint64_t cost = record_dma(
      static_cast<std::uint64_t>(nblocks * block_bytes), block_bytes,
      perf::DmaDirection::kPut, aligned);
  trace_event(exec_, cell(), id(), "dma", [nblocks, block_bytes] {
    return "put-strided " + std::to_string(nblocks) + "x" +
           std::to_string(block_bytes) + "B";
  }, cost);
  if (!dma_attempt(static_cast<std::uint64_t>(nblocks * block_bytes),
                   block_bytes, perf::DmaDirection::kPut, aligned)) {
    return;
  }
  for (std::int64_t b = 0; b < nblocks; ++b) {
    std::copy(src.begin() + b * block_elems,
              src.begin() + (b + 1) * block_elems, dst_base + b * stride_elems);
  }
}

// Injected bus stall: the operation still completes, later.
void CpeContext::maybe_stall_bus() {
  if (FaultInjector* fi = exec_.fault_injector()) {
    if (const std::uint64_t stall = fi->poll_regcomm_stall(id())) {
      trace_event(exec_, cell(), id(), "fault", [stall] {
        return "bus stall " + std::to_string(stall) + " cycles";
      }, stall);
      charge_cycles(stall);
    }
  }
}

void CpeContext::put_row(int dst_col, const Vec4& value) {
  maybe_stall_bus();
  mesh_.cell(row_, dst_col).row_buffer.put(value);
  cell().regcomm_messages += 1;
  charge_cycles(1);  // a put issues in one cycle on P1
}

void CpeContext::put_col(int dst_row, const Vec4& value) {
  maybe_stall_bus();
  mesh_.cell(dst_row, col_).col_buffer.put(value);
  cell().regcomm_messages += 1;
  charge_cycles(1);
}

void CpeContext::bcast_row(const Vec4& value) {
  maybe_stall_bus();
  trace_event(exec_, cell(), id(), "bus", "bcast-row", 1);
  for (int c = 0; c < mesh_.cols(); ++c) {
    if (c == col_) continue;
    mesh_.cell(row_, c).row_buffer.put(value);
  }
  // Hardware multicast: one bus transaction regardless of fan-out.
  cell().regcomm_messages += static_cast<std::uint64_t>(mesh_.cols() - 1);
  charge_cycles(1);
}

void CpeContext::bcast_col(const Vec4& value) {
  maybe_stall_bus();
  trace_event(exec_, cell(), id(), "bus", "bcast-col", 1);
  for (int r = 0; r < mesh_.rows(); ++r) {
    if (r == row_) continue;
    mesh_.cell(r, col_).col_buffer.put(value);
  }
  cell().regcomm_messages += static_cast<std::uint64_t>(mesh_.rows() - 1);
  charge_cycles(1);
}

Vec4 CpeContext::get_row() {
  charge_cycles(static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetr).latency_cycles));
  return cell().row_buffer.get();
}

Vec4 CpeContext::get_col() {
  charge_cycles(static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetc).latency_cycles));
  return cell().col_buffer.get();
}

// The bulk primitives charge per-message accounting in exactly the
// order the Vec4 loop does — one stall poll, one trace event, one
// message count, one issue cycle per 256-bit message — so fault
// placement, traces, and LaunchStats are bitwise what the reference
// path produces. Only the transfer-buffer traffic is batched: the tile
// is packed once and every receiver queues the same payload.

// The injector is read once per span: with none attached there is no
// stall to poll for, and the per-message call is skipped.
void CpeContext::charge_broadcast(std::size_t messages, int fanout,
                                  const char* name) {
  const bool poll = exec_.fault_injector() != nullptr;
  for (std::size_t m = 0; m < messages; ++m) {
    if (poll) maybe_stall_bus();
    trace_event(exec_, cell(), id(), "bus", name, 1);
    cell().regcomm_messages += static_cast<std::uint64_t>(fanout);
    charge_cycles(1);
  }
}

void CpeContext::bcast_row_span(std::span<const double> data) {
  const std::size_t messages = (data.size() + 3) / 4;
  const int fanout = mesh_.cols() - 1;
  charge_broadcast(messages, fanout, "bcast-row");
  if (messages == 0 || fanout == 0) return;
  Payload& payload = mesh_.payload_pool().pack(data, fanout);
  for (int c = 0; c < mesh_.cols(); ++c) {
    if (c == col_) continue;
    mesh_.cell(row_, c).row_buffer.put_payload(payload);
  }
}

void CpeContext::bcast_col_span(std::span<const double> data) {
  const std::size_t messages = (data.size() + 3) / 4;
  const int fanout = mesh_.rows() - 1;
  charge_broadcast(messages, fanout, "bcast-col");
  if (messages == 0 || fanout == 0) return;
  Payload& payload = mesh_.payload_pool().pack(data, fanout);
  for (int r = 0; r < mesh_.rows(); ++r) {
    if (r == row_) continue;
    mesh_.cell(r, col_).col_buffer.put_payload(payload);
  }
}

std::span<const double> CpeContext::recv_row_span(std::span<double> buffer) {
  if (buffer.empty()) return buffer;
  const std::uint64_t messages = (buffer.size() + 3) / 4;
  charge_cycles(messages *
                static_cast<std::uint64_t>(
                    arch::op_info(arch::Opcode::kGetr).latency_cycles));
  return cell().row_buffer.get_span(buffer);
}

std::span<const double> CpeContext::recv_col_span(std::span<double> buffer) {
  if (buffer.empty()) return buffer;
  const std::uint64_t messages = (buffer.size() + 3) / 4;
  charge_cycles(messages *
                static_cast<std::uint64_t>(
                    arch::op_info(arch::Opcode::kGetc).latency_cycles));
  return cell().col_buffer.get_span(buffer);
}

void CpeContext::sync() {
  trace_event(exec_, cell(), id(), "sync", "barrier", 1);
  if (std::barrier<>* barrier = exec_.spawned_barrier_) {
    barrier->arrive_and_wait();
  } else {
    exec_.fibers_.sync();
  }
}

void CpeContext::charge_flops(std::uint64_t flops) {
  cell().flops += flops;
  const std::uint64_t per_cycle = exec_.flops_per_cycle_;
  charge_cycles((flops + per_cycle - 1) / per_cycle);
}

void CpeContext::charge_cycles(std::uint64_t cycles) {
  std::uint64_t& cc = cell().compute_cycles;
  cc = cycles > UINT64_MAX - cc ? UINT64_MAX : cc + cycles;
}

void LaunchStats::accumulate(const LaunchStats& next) {
  max_compute_cycles += next.max_compute_cycles;
  total_flops += next.total_flops;
  regcomm_messages += next.regcomm_messages;
  dma.get_bytes += next.dma.get_bytes;
  dma.put_bytes += next.dma.put_bytes;
  dma.requests += next.dma.requests;
  dma.misaligned_requests += next.dma.misaligned_requests;
  dma_seconds += next.dma_seconds;
  compute_seconds += next.compute_seconds;
  fault_events += next.fault_events;
  dma_retries += next.dma_retries;
  if (next.failed && !failed) {
    failed = true;
    persistent_fault = next.persistent_fault;
    failure = next.failure;
  }
}

void LaunchTally::add_dma(const arch::Sw26010Spec& spec, std::uint64_t count,
                          std::uint64_t bytes, std::int64_t block_bytes,
                          perf::DmaDirection dir) {
  const bool aligned =
      block_bytes % static_cast<std::int64_t>(spec.dma_alignment_bytes) == 0;
  const std::uint64_t total = count * bytes;
  if (dir == perf::DmaDirection::kGet) {
    dma.get_bytes += total;
  } else {
    dma.put_bytes += total;
  }
  dma.requests += count;
  if (!aligned) dma.misaligned_requests += count;
  dma.cycles += count * DmaEngine::request_cost(bytes, block_bytes, dir,
                                                aligned, spec.cpe_clock_ghz);
}

LaunchStats LaunchTally::stats(const arch::Sw26010Spec& spec) const {
  LaunchStats s;
  s.max_compute_cycles = cpe_cycles;
  s.total_flops = flops;
  s.regcomm_messages = regcomm_messages;
  s.dma = {dma.get_bytes, dma.put_bytes, dma.requests,
           dma.misaligned_requests};
  s.dma_seconds =
      static_cast<double>(dma.cycles) / (spec.cpe_clock_ghz * 1e9);
  s.compute_seconds =
      static_cast<double>(cpe_cycles) / (spec.cpe_clock_ghz * 1e9);
  return s;
}

MeshExecutor::MeshExecutor(const arch::Sw26010Spec& spec)
    : spec_(spec),
      flops_per_cycle_(
          static_cast<std::uint64_t>(spec_.flops_per_cycle_per_cpe())),
      mesh_(spec_),
      dma_(spec_),
      fibers_(mesh_.rows(), mesh_.cols()) {}

void MeshExecutor::prepare_launch() {
  mesh_.reset_for_launch();
  dma_.reset();
  failed_.store(false);
  persistent_.store(false);
  dma_retries_.store(0);
  failure_.clear();
  // (Re-)attach or detach the fault campaign on every launch: the mesh
  // persists across launches and across injector changes.
  for (int r = 0; r < mesh_.rows(); ++r) {
    for (int c = 0; c < mesh_.cols(); ++c) {
      const int cpe = r * mesh_.cols() + c;
      if (injector_ == nullptr) {
        mesh_.cell(r, c).ldm.attach_faults(nullptr, cpe, nullptr);
        continue;
      }
      mesh_.cell(r, c).ldm.attach_faults(
          injector_, cpe, [this](const std::string& msg) {
            // LDM faults are always persistent for the launch: the
            // arena stays degraded for its whole lifetime.
            persistent_.store(true, std::memory_order_relaxed);
            bool expected = false;
            if (failed_.compare_exchange_strong(expected, true)) {
              std::lock_guard<std::mutex> lock(failure_mutex_);
              failure_ = msg;
            }
          });
    }
  }
}

void MeshExecutor::execute_cell(const Kernel& kernel, int row, int col) {
  CpeContext ctx(*this, mesh_, dma_, row, col);
  // A throwing CPE kernel cannot be unwound safely: peers may be blocked
  // on the barrier or on transfer buffers this CPE feeds, and on the
  // fiber path an exception must not leave the fiber's stack.
  try {
    kernel(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fatal: CPE(%d,%d) kernel threw: %s\n", row, col,
                 e.what());
    std::abort();
  } catch (...) {
    std::fprintf(stderr,
                 "fatal: CPE(%d,%d) kernel threw: a non-std::exception\n",
                 row, col);
    std::abort();
  }
}

void MeshExecutor::run_spawned(const Kernel& kernel) {
  std::barrier<> barrier(mesh_.num_cpes());
  spawned_barrier_ = &barrier;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(mesh_.num_cpes()));
  for (int r = 0; r < mesh_.rows(); ++r) {
    for (int c = 0; c < mesh_.cols(); ++c) {
      threads.emplace_back(
          [this, &kernel, r, c] { execute_cell(kernel, r, c); });
    }
  }
  for (auto& t : threads) t.join();
  spawned_barrier_ = nullptr;
}

LaunchStats MeshExecutor::run(const Kernel& kernel) {
  prepare_launch();
  const std::uint64_t faults_before =
      injector_ != nullptr ? injector_->total_events() : 0;

  if (use_fibers_) {
    fibers_.run([this, &kernel](int id) {
      execute_cell(kernel, id / mesh_.cols(), id % mesh_.cols());
    });
  } else {
    run_spawned(kernel);
  }
  mesh_.release_views();

  // Fold the per-CPE DMA shards into the shared engine: one pass per
  // launch instead of one atomic round-trip per transfer.
  for (int id = 0; id < mesh_.num_cpes(); ++id) {
    dma_.add_shard(mesh_.cell_by_id(id).dma);
  }

  LaunchStats stats;
  stats.max_compute_cycles = mesh_.max_compute_cycles();
  stats.total_flops = mesh_.total_flops();
  stats.regcomm_messages = mesh_.total_regcomm_messages();
  stats.dma = dma_.totals();
  stats.dma_seconds = dma_.modeled_seconds();
  stats.compute_seconds = static_cast<double>(stats.max_compute_cycles) /
                          (spec_.cpe_clock_ghz * 1e9);
  stats.failed = failed_.load();
  stats.persistent_fault = persistent_.load();
  stats.dma_retries = dma_retries_.load();
  if (stats.failed) {
    std::lock_guard<std::mutex> lock(failure_mutex_);
    stats.failure = failure_;
  }
  if (injector_ != nullptr) {
    stats.fault_events = injector_->total_events() - faults_before;
  }
  return stats;
}

}  // namespace swdnn::sim
