#pragma once
// Deterministic fibers for the simulated CPE mesh.
//
// The paper's kernels are SPMD programs that wait on each other only at
// mesh-wide barriers and at register-communication Gets (and at Puts
// into a full transfer buffer). FiberScheduler runs the rows x cols
// kernels of one launch as fibers on the calling thread. A fiber gives
// the thread up only where its CPE has to wait: it parks with a
// readiness predicate, and the scheduler resumes it once the predicate
// holds. A switch saves the callee-saved registers, MXCSR and the x87
// control word and swaps stacks (x86-64 assembly; POSIX swapcontext on
// other targets), so a barrier or a Get on an empty bus costs
// nanoseconds and never enters the OS kernel.
//
// The schedule is fixed by the kernels alone: passes over the fibers in
// CPE-id order, each resuming every fiber that is ready. If a pass finds
// no fiber ready while some have not finished, the launch can never
// complete (a CPE skipped sync(), or Gets from a bus nobody feeds): the
// scheduler aborts the process, naming each blocked CPE and what it
// waits on.
//
// Stacks are mapped on the first run(), one guard page below each, and
// unmapped by the destructor.

#include <cstdint>
#include <functional>
#include <memory>

namespace swdnn::sim {

/// What a parked fiber waits for. The scheduler polls
/// `ready(object, arg)` between fibers and resumes the fiber once it
/// returns true. `what` and `where` complete the deadlock report line
/// "CPE(r,c) <what> <where>".
struct FiberWait {
  bool (*ready)(const void* object, std::uint64_t arg) = nullptr;
  const void* object = nullptr;
  std::uint64_t arg = 0;
  const char* what = "";
  const char* where = "";
};

class FiberScheduler {
 public:
  /// One fiber per CPE of a rows x cols mesh.
  FiberScheduler(int rows, int cols);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Runs body(id) for every CPE id in [0, rows*cols), each on its own
  /// fiber on the calling thread, and returns once every body returned.
  /// `body` must not throw. Not reentrant.
  void run(const std::function<void(int)>& body);

  /// Mesh-wide barrier among the fibers of the running launch. Call only
  /// from one of them.
  void sync();

  /// Parks the running fiber until `wait.ready` holds. Call only from a
  /// fiber of this scheduler.
  void park(const FiberWait& wait);

  /// The scheduler running a launch on this thread, or nullptr on a
  /// plain thread (such as the executor's spawned reference threads).
  static FiberScheduler* current();

 private:
  struct State;
  std::unique_ptr<State> state_;
};

}  // namespace swdnn::sim
