#pragma once
// Shared host parallel runtime.
//
// The substrate for every *host-side* hot loop — packed GEMM panels,
// im2col/col2im, the embarrassingly parallel dnn layer kernels, and
// concurrent data-parallel replica stepping. One lazily-initialized,
// process-wide pool serves them all, so nested parallel regions never
// oversubscribe the machine.
//
// Determinism contract (the property every caller leans on):
//   * parallel_for splits [begin, end) into contiguous chunks of
//     `grain` indices. Chunk boundaries depend ONLY on (begin, end,
//     grain) — never on the thread count — and each chunk is executed
//     exactly once. Callers write disjoint outputs per index, so the
//     result is bitwise-identical at any thread count, including the
//     serial inline path.
//   * Reductions use the shard-indexed form: the caller accumulates a
//     partial per chunk and combines the partials in ascending chunk
//     order after the loop, which again cannot depend on the thread
//     count.
//   * Nested calls (a parallel_for issued from inside a pool worker)
//     and calls that lose the dispatch race run the same chunks inline
//     in ascending order — identical results, no deadlock.
//
// Sizing: SWDNN_HOST_THREADS in the environment, read once at first
// use; unset or invalid falls back to std::thread::hardware_concurrency,
// and `1` forces the serial inline path everywhere.

#include <cstdint>
#include <functional>

namespace swdnn::runtime {

class TaskPool {
 public:
  /// The process-wide pool (workers spawn on first use).
  static TaskPool& instance();

  /// Number of execution lanes (workers + the calling thread). Always
  /// >= 1; 1 means every parallel_for runs inline.
  int thread_count() const { return threads_; }

  /// Reconfigures the pool size, joining and respawning workers. For
  /// benchmarks and the determinism tests; must not race with an
  /// in-flight parallel_for.
  void set_thread_count(int threads);

  /// Runs fn(chunk_begin, chunk_end) for every grain-sized chunk of
  /// [begin, end), each chunk exactly once. See the determinism
  /// contract above. Exceptions thrown by fn are rethrown in the
  /// caller (the one from the lowest-indexed faulting chunk).
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& fn);

  /// Reduction form: fn(chunk_index, chunk_begin, chunk_end). Chunk
  /// indices are dense, start at 0, and follow ascending begin — use
  /// them to write per-chunk partials that the caller combines in
  /// ascending chunk order.
  void parallel_for_shards(
      std::int64_t begin, std::int64_t end, std::int64_t grain,
      const std::function<void(std::int64_t, std::int64_t, std::int64_t)>&
          fn);

  /// Number of chunks parallel_for/parallel_for_shards will produce
  /// for this range — thread-count independent by construction.
  static std::int64_t chunk_count(std::int64_t begin, std::int64_t end,
                                  std::int64_t grain);

  /// True on a pool worker thread (inside a chunk callback). The
  /// gradient-exchange overlap path leans on this: a bucket reduction
  /// triggered from inside a replica-stepping parallel_for runs inline
  /// on the worker that completed the bucket last, overlapping with the
  /// remaining backward chunks on the other lanes — the determinism
  /// contract makes that scheduling freedom numerically invisible.
  static bool in_pool_worker();

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

 private:
  TaskPool();

  void spawn_workers();
  void join_workers();
  void worker_main(int worker_index, std::uint64_t start_generation);
  void run_lane(int lane);

  struct Impl;
  Impl* impl_;
  int threads_ = 1;
};

/// Convenience wrappers over TaskPool::instance().
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& fn);
void parallel_for_shards(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>& fn);

/// Configured lane count (>= 1).
int host_threads();

/// Test/bench hook: resize the shared pool (1 = force serial).
void set_host_threads(int threads);

}  // namespace swdnn::runtime
