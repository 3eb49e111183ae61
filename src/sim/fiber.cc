#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SWDNN_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SWDNN_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define SWDNN_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SWDNN_FIBER_TSAN 1
#endif
#endif

#ifdef SWDNN_FIBER_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SWDNN_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
// A frame that never returns must not push onto TSan's shadow call
// stack, or every launch would leave one more entry there.
#define SWDNN_FIBER_NO_TSAN __attribute__((no_sanitize("thread")))
#else
#define SWDNN_FIBER_NO_TSAN
#endif

// The assembly switch needs the x86-64 SysV ABI and an ELF assembler.
// Under CET shadow stacks only swapcontext keeps the shadow stack in
// step with the stack it switches to.
#if defined(__x86_64__) && defined(__ELF__) && \
    !(defined(__CET__) && (__CET__ & 2))
#define SWDNN_FIBER_ASM 1
#else
#include <ucontext.h>
#endif

#ifdef SWDNN_FIBER_ASM
// swdnn_sim_fiber_switch(save_sp, load_sp) pushes the callee-saved
// registers, MXCSR and the x87 control word, stores the stack pointer
// in *save_sp, then pops the same frame from load_sp and returns on
// that stack. A new fiber's frame returns into swdnn_sim_fiber_start,
// which calls r13(r12) and never returns.
extern "C" void swdnn_sim_fiber_switch(void** save_sp, void* load_sp);
extern "C" void swdnn_sim_fiber_start();
asm(R"(
  .pushsection .text
  .globl swdnn_sim_fiber_switch
  .hidden swdnn_sim_fiber_switch
  .type swdnn_sim_fiber_switch, @function
  .p2align 4
swdnn_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw 12(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw 12(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size swdnn_sim_fiber_switch, .-swdnn_sim_fiber_switch

  .globl swdnn_sim_fiber_start
  .hidden swdnn_sim_fiber_start
  .type swdnn_sim_fiber_start, @function
  .p2align 4
swdnn_sim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size swdnn_sim_fiber_start, .-swdnn_sim_fiber_start
  .popsection
)");
#endif

namespace swdnn::sim {

namespace {

// Kernels are shallow: LDM buffers live in the LDM arenas, and across
// the test suite and the benchmark smoke no fiber used more than about
// 4 KiB. The margin covers sanitizer builds, whose frames are several
// times larger; pages a fiber never touches never become resident.
constexpr std::size_t kStackBytes = 256 * 1024;

thread_local FiberScheduler* t_current = nullptr;

#ifdef SWDNN_FIBER_ASM
struct Context {
  void* sp = nullptr;
};
SWDNN_FIBER_NO_TSAN void switch_context(Context& from, const Context& to) {
  swdnn_sim_fiber_switch(&from.sp, to.sp);
}
#else
struct Context {
  ucontext_t uc;
};
SWDNN_FIBER_NO_TSAN void switch_context(Context& from, const Context& to) {
  swapcontext(&from.uc, &to.uc);
}
#endif

struct Fiber {
  Context context;
  char* stack = nullptr;  ///< lowest byte; the guard page sits below
  FiberWait wait;         ///< what the fiber is parked on, if anything
  bool done = false;
#ifdef SWDNN_FIBER_ASAN
  void* fake_stack = nullptr;
#endif
#ifdef SWDNN_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

}  // namespace

struct FiberScheduler::State {
  State(int rows, int cols)
      : cols(cols), fibers(static_cast<std::size_t>(rows * cols)) {}
  ~State();

  void map_stacks();
  void start(int id);
  void resume(int id);
  void to_launcher(Fiber& fiber);
  [[noreturn]] void report_deadlock() const;
  [[noreturn]] SWDNN_FIBER_NO_TSAN static void entry(State* state) noexcept;
#ifndef SWDNN_FIBER_ASM
  static void ucontext_entry() { entry(t_current->state_.get()); }
#endif
  static bool barrier_passed(const void* state, std::uint64_t generation) {
    return static_cast<const State*>(state)->generation != generation;
  }

  const int cols;
  std::vector<Fiber> fibers;
  char* mapping = nullptr;
  std::size_t mapping_bytes = 0;
  std::size_t stack_bytes = 0;

  Context launcher;  ///< the thread inside run(), while a fiber runs
  const std::function<void(int)>* body = nullptr;
  int running = -1;
  int arrived = 0;               ///< barrier arrivals this generation
  std::uint64_t generation = 0;  ///< barriers completed

#ifdef SWDNN_FIBER_ASAN
  void* launcher_fake_stack = nullptr;
  const void* launcher_stack = nullptr;
  std::size_t launcher_stack_bytes = 0;
#endif
#ifdef SWDNN_FIBER_TSAN
  void* launcher_tsan = nullptr;
#endif
};

FiberScheduler::State::~State() {
#ifdef SWDNN_FIBER_TSAN
  for (Fiber& f : fibers) {
    if (f.tsan != nullptr) __tsan_destroy_fiber(f.tsan);
  }
#endif
  if (mapping == nullptr) return;
#ifdef SWDNN_FIBER_ASAN
  // Later mappings may reuse these addresses.
  ASAN_UNPOISON_MEMORY_REGION(mapping, mapping_bytes);
#endif
  munmap(mapping, mapping_bytes);
}

void FiberScheduler::State::map_stacks() {
  if (mapping != nullptr) return;
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes = (kStackBytes + page - 1) / page * page;
  const std::size_t slot = page + stack_bytes;
  const std::size_t bytes = slot * fibers.size();
  int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_STACK
  flags |= MAP_STACK;
#endif
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  char* base = static_cast<char*>(p);
  for (std::size_t i = 0; i < fibers.size(); ++i) {
    if (mprotect(base + i * slot, page, PROT_NONE) != 0) {
      munmap(p, bytes);
      throw std::bad_alloc();
    }
    fibers[i].stack = base + i * slot + page;
  }
  mapping = base;
  mapping_bytes = bytes;
}

// Lays out a fresh frame at the top of the fiber's stack so the first
// switch into it calls entry(this) on that stack.
void FiberScheduler::State::start(int id) {
  Fiber& f = fibers[static_cast<std::size_t>(id)];
  f.done = false;
  f.wait = FiberWait{};
#ifdef SWDNN_FIBER_ASAN
  // The frames the fiber left when it finished last launch are still
  // poisoned.
  ASAN_UNPOISON_MEMORY_REGION(f.stack, stack_bytes);
  f.fake_stack = nullptr;
#endif
#ifdef SWDNN_FIBER_TSAN
  if (f.tsan == nullptr) f.tsan = __tsan_create_fiber(0);
#endif
#ifdef SWDNN_FIBER_ASM
  // The fiber inherits the launching thread's floating-point controls.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  // From the top: two zero words ending the call chain, the return
  // address, rbp, rbx, r12 (entry's argument), r13 (entry), r14, r15,
  // and MXCSR plus the x87 control word at sp + 8. The switch's ret
  // leaves rsp 16 bytes below the top, aligned as
  // swdnn_sim_fiber_start's call requires.
  const std::uintptr_t frame[] = {
      0,
      mxcsr | (static_cast<std::uintptr_t>(fpu_cw) << 32),
      0,
      0,
      reinterpret_cast<std::uintptr_t>(&entry),
      reinterpret_cast<std::uintptr_t>(this),
      0,
      0,
      reinterpret_cast<std::uintptr_t>(&swdnn_sim_fiber_start),
      0,
      0};
  constexpr std::size_t kWords = sizeof(frame) / sizeof(frame[0]);
  auto* sp = reinterpret_cast<std::uintptr_t*>(f.stack + stack_bytes) - kWords;
  std::memcpy(sp, frame, sizeof(frame));
  f.context.sp = sp;
#else
  getcontext(&f.context.uc);
  f.context.uc.uc_stack.ss_sp = f.stack;
  f.context.uc.uc_stack.ss_size = stack_bytes;
  f.context.uc.uc_link = nullptr;
  makecontext(&f.context.uc, &ucontext_entry, 0);
#endif
}

void FiberScheduler::State::resume(int id) {
  Fiber& f = fibers[static_cast<std::size_t>(id)];
  running = id;
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_start_switch_fiber(&launcher_fake_stack, f.stack, stack_bytes);
#endif
#ifdef SWDNN_FIBER_TSAN
  __tsan_switch_to_fiber(f.tsan, 0);
#endif
  switch_context(launcher, f.context);
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(launcher_fake_stack, nullptr, nullptr);
#endif
  running = -1;
}

// Runs on a parked fiber; returns once run() resumes it.
void FiberScheduler::State::to_launcher(Fiber& fiber) {
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_start_switch_fiber(&fiber.fake_stack, launcher_stack,
                                 launcher_stack_bytes);
#endif
#ifdef SWDNN_FIBER_TSAN
  __tsan_switch_to_fiber(launcher_tsan, 0);
#endif
  switch_context(fiber.context, launcher);
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fiber.fake_stack, &launcher_stack,
                                  &launcher_stack_bytes);
#endif
}

void FiberScheduler::State::entry(State* state) noexcept {
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_finish_switch_fiber(nullptr, &state->launcher_stack,
                                  &state->launcher_stack_bytes);
#endif
  const int id = state->running;
  (*state->body)(id);
  Fiber& f = state->fibers[static_cast<std::size_t>(id)];
  f.done = true;
  // The last switch: run() never resumes a finished fiber, so ASan may
  // drop its fake stack.
#ifdef SWDNN_FIBER_ASAN
  __sanitizer_start_switch_fiber(nullptr, state->launcher_stack,
                                 state->launcher_stack_bytes);
#endif
#ifdef SWDNN_FIBER_TSAN
  __tsan_switch_to_fiber(state->launcher_tsan, 0);
#endif
  switch_context(f.context, state->launcher);
  std::abort();  // unreachable
}

void FiberScheduler::State::report_deadlock() const {
  int blocked = 0;
  for (const Fiber& f : fibers) blocked += f.done ? 0 : 1;
  std::fprintf(stderr,
               "fatal: simulated mesh deadlock: %d of %zu CPEs are blocked "
               "and none can run\n",
               blocked, fibers.size());
  for (std::size_t id = 0; id < fibers.size(); ++id) {
    const Fiber& f = fibers[id];
    if (f.done) continue;
    std::fprintf(stderr, "  CPE(%d,%d) %s %s\n",
                 static_cast<int>(id) / cols, static_cast<int>(id) % cols,
                 f.wait.what, f.wait.where);
  }
  std::abort();
}

FiberScheduler::FiberScheduler(int rows, int cols)
    : state_(std::make_unique<State>(rows, cols)) {}

FiberScheduler::~FiberScheduler() = default;

FiberScheduler* FiberScheduler::current() { return t_current; }

void FiberScheduler::run(const std::function<void(int)>& body) {
  State& st = *state_;
  st.map_stacks();
  const int n = static_cast<int>(st.fibers.size());
  st.body = &body;
  for (int id = 0; id < n; ++id) st.start(id);
#ifdef SWDNN_FIBER_TSAN
  st.launcher_tsan = __tsan_get_current_fiber();
#endif
  FiberScheduler* const outer = t_current;
  t_current = this;
  int unfinished = n;
  while (unfinished > 0) {
    bool resumed = false;
    for (int id = 0; id < n; ++id) {
      Fiber& f = st.fibers[static_cast<std::size_t>(id)];
      const FiberWait& w = f.wait;
      if (f.done || (w.ready != nullptr && !w.ready(w.object, w.arg))) {
        continue;
      }
      f.wait = FiberWait{};
      st.resume(id);
      resumed = true;
      if (f.done) --unfinished;
    }
    if (!resumed) st.report_deadlock();
  }
  t_current = outer;
  st.body = nullptr;
}

void FiberScheduler::sync() {
  State& st = *state_;
  if (++st.arrived == static_cast<int>(st.fibers.size())) {
    st.arrived = 0;
    ++st.generation;
    return;
  }
  park(FiberWait{&State::barrier_passed, &st, st.generation, "waits at the",
                 "barrier"});
}

void FiberScheduler::park(const FiberWait& wait) {
  State& st = *state_;
  Fiber& f = st.fibers[static_cast<std::size_t>(st.running)];
  f.wait = wait;
  st.to_launcher(f);
}

}  // namespace swdnn::sim
