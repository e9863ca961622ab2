// Discrete-event scheduler with a virtual clock and K simulated cores.
//
// Threads are coroutines (SimTask<void>); the scheduler models parallel execution across
// simulated cores in virtual time:
//
//   * While running, a thread charges cycles (Charge); its slice occupies its core for exactly
//     the charged duration.
//   * Dispatch picks, among ready threads, the one that can *start earliest* on an eligible
//     core (respecting pinning), breaking ties by ready time then spawn order — this keeps
//     virtual-time causality: a thread never observes effects from a virtually-later slice.
//     Ready threads sit in one queue per class (unpinned, or pinned to one core), keyed
//     (ready time, spawn order): a FIFO run sorted by key in front of a min-heap, so a dispatch
//     compares only each class's least entry, and a push in key order costs O(1) (DESIGN.md
//     §4.1).
//   * Blocking (wait queues, sleeping, lock contention) releases the core.
//
// The host executes one slice at a time on the calling thread and everything is
// deterministic: no host time, no host threads, explicit tie-breaking.
#ifndef UFORK_SRC_SCHED_SCHEDULER_H_
#define UFORK_SRC_SCHED_SCHEDULER_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/units.h"
#include "src/sched/task.h"

namespace ufork {

class Scheduler;
class WaitQueue;

using ThreadId = uint64_t;
inline constexpr ThreadId kInvalidThread = ~0ULL;
inline constexpr Cycles kNoCycleLimit = ~0ULL;

// Thread control block.
class SimThread {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  ThreadId tid() const { return tid_; }
  const std::string& name() const { return name_; }
  State state() const { return state_; }
  int pinned_core() const { return pinned_core_; }
  // Virtual time as seen by this thread (valid while running).
  Cycles now() const { return slice_start_ + charged_; }

  // Opaque pointer for the kernel layer (owning Uproc). The scheduler never inspects it.
  void set_context(void* ctx) { context_ = ctx; }
  void* context() const { return context_; }

 private:
  friend class Scheduler;
  friend class WaitQueue;
  friend class VirtualLock;

  enum class Pending { kNone, kYield, kSleep, kBlock, kExit };

  ThreadId tid_ = kInvalidThread;
  std::string name_;
  SimTask<void> root_;
  std::coroutine_handle<> resume_point_;  // innermost suspended frame
  State state_ = State::kReady;
  Cycles ready_time_ = 0;  // earliest virtual time the thread may start a slice
  int pinned_core_ = -1;   // -1: any core
  void* context_ = nullptr;

  Cycles slice_start_ = 0;  // start of the current/last slice
  Cycles charged_ = 0;      // cycles charged in the current slice
  Pending pending_ = Pending::kNone;
  Cycles pending_sleep_ = 0;
  uint64_t seq_ = 0;  // spawn order, deterministic tie-break
};

// FIFO wait queue in virtual time. Wakers stamp woken threads with the waker's current time,
// so a thread blocked at t=100 woken by a thread at t=250 becomes ready at 250 — plus an
// optional resume delay modeling the wakeup latency (IPI + scheduler path) of the object this
// queue guards. The delay applies only when the thread actually blocked, matching hardware:
// a reader that finds data ready pays nothing.
class WaitQueue {
 public:
  explicit WaitQueue(Scheduler& sched) : sched_(sched) {}

  void set_resume_delay(Cycles delay) { resume_delay_ = delay; }

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Awaitable: blocks the calling thread until woken.
  auto Wait();

  // Wakes up to n threads (front of the queue). Returns the number woken.
  uint64_t Wake(uint64_t n = 1);
  uint64_t WakeAll() { return Wake(~0ULL); }

  bool empty() const { return waiters_.empty(); }
  uint64_t size() const { return waiters_.size(); }

  // Removes a specific thread (used when killing a blocked thread).
  bool Remove(SimThread* thread);

 private:
  friend class Scheduler;
  friend class VirtualLock;
  Scheduler& sched_;
  Cycles resume_delay_ = 0;
  std::deque<SimThread*> waiters_;
};

class Scheduler {
 public:
  explicit Scheduler(int num_cores);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a thread from a coroutine. Ready at the spawner's current time (or t=0 outside of
  // execution). pinned_core = -1 lets it run anywhere.
  ThreadId Spawn(SimTask<void> task, std::string name, int pinned_core = -1);

  // Runs until no thread is runnable. UF_CHECKs on deadlock (blocked threads remain) unless
  // allow_blocked_exit is set (servers parked on wait queues at the end of a benchmark).
  void Run();
  void set_allow_blocked_exit(bool allow) { allow_blocked_exit_ = allow; }

  // --- Called from within running coroutines --------------------------------------------------

  SimThread& Current() {
    UF_CHECK_MSG(current_ != nullptr, "no running simulated thread");
    return *current_;
  }
  bool InThread() const { return current_ != nullptr; }

  // Charges virtual CPU time to the current slice (on every simulated memory access).
  void Charge(Cycles cycles) {
    if (current_ != nullptr) [[likely]] {
      current_->charged_ += cycles;
      return;
    }
    boot_clock_ += cycles;  // charged during boot, before any thread slice
  }

  // Current virtual time from the caller's perspective.
  Cycles Now() const { return current_ != nullptr ? current_->now() : boot_clock_; }

  // Virtual time at which the last completed Run() drained (max over cores).
  Cycles CompletionTime() const { return completion_; }

  // Awaitables.
  auto Sleep(Cycles duration);
  auto Yield();

  // Terminates the current thread at its next suspension point. Prefer letting the root
  // coroutine return; this is for kill paths.
  auto ExitThread();

  // Forcefully destroys a thread (SIGKILL). Must not be the current thread.
  void Kill(ThreadId tid);

  bool IsAlive(ThreadId tid) const;

  // True if the thread exists and is parked on a WaitQueue (not ready, running, or done). The
  // compaction planner uses this as its quiescence test: a μprocess whose every thread is
  // blocked cannot observe its region mid-move except through the forwarding window.
  bool IsBlocked(ThreadId tid) const;

  // Attaches an opaque context (owning kernel object) to a thread control block.
  void SetThreadContext(ThreadId tid, void* context);

  // Cost charged when a core switches between different threads (and, via the kernel-installed
  // hook, between different address spaces in the MAS baseline).
  void set_context_switch_hook(std::function<Cycles(SimThread* prev, SimThread* next)> hook) {
    context_switch_hook_ = std::move(hook);
  }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  uint64_t context_switches() const { return context_switches_; }
  uint64_t slices_executed() const { return slices_; }

 private:
  friend class WaitQueue;

  struct Core {
    Cycles free_at = 0;
    SimThread* last_thread = nullptr;
  };

  // A ready thread with its dispatch key inline, so heap sifts never dereference the thread.
  struct ReadyEntry {
    Cycles ready;
    uint64_t seq;
    SimThread* thread;
  };
  // The "less" comparator that makes std::push_heap/pop_heap keep a min-heap on (ready, seq).
  // A function object rather than a function pointer, so the heap sifts inline it.
  struct ReadyAfter {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
    }
  };

  // One ready class: a FIFO run sorted by (ready, seq) in front of a min-heap. A push that
  // finds the run empty or whose key exceeds the run's back is appended to the run; any other
  // goes to the heap. Keys are unique, so the class's least entry is the lesser of the run's
  // front and the heap's top (DESIGN.md §4.1).
  class ReadyQueue {
   public:
    bool empty() const { return run_.empty() && heap_.empty(); }
    void Push(const ReadyEntry& entry);
    const ReadyEntry& Least() const { return LeastInRun() ? run_.front() : heap_.front(); }
    SimThread* PopLeast();
    void Erase(const SimThread* thread);

   private:
    bool LeastInRun() const {
      return heap_.empty() || (!run_.empty() && ReadyAfter{}(heap_.front(), run_.front()));
    }

    std::deque<ReadyEntry> run_;
    std::vector<ReadyEntry> heap_;
  };

  // The ready thread dispatch would pick next: which class's least entry, on which core,
  // starting when. queue == kNoQueue when no thread is ready.
  struct Candidate {
    static constexpr size_t kNoQueue = ~size_t{0};
    size_t queue = kNoQueue;
    int core = -1;
    Cycles start = kNoCycleLimit;
  };

  struct SleepAwaiter;
  struct BlockAwaiter;
  struct ExitAwaiter;

  void MakeReady(SimThread* thread, Cycles at);
  static size_t QueueIndex(const SimThread* thread) {
    return static_cast<size_t>(1 + thread->pinned_core_);  // the unpinned queue is ready_[0]
  }
  Candidate BestCandidate() const;
  SimThread* PickNext(int* core_out, Cycles* start_out);
  SimThread* ThreadAt(ThreadId tid) const;
  void CheckBlockedExit() const;
  void FinishThread(SimThread* thread);
  void DestroyThread(SimThread* thread);

  SimThread* current_ = nullptr;  // the thread whose slice is executing, or nullptr
  std::vector<Core> cores_;
  // ready_[0] holds unpinned threads; ready_[1 + c] those pinned to core c.
  std::vector<ReadyQueue> ready_;
  size_t pinned_ready_ = 0;  // entries across the pinned queues; 0 skips their scan
  uint64_t next_seq_ = 0;    // spawn-order tie-break counter
  Cycles completion_ = 0;    // max slice end observed
  uint64_t context_switches_ = 0;
  uint64_t slices_ = 0;
  std::deque<std::unique_ptr<SimThread>> threads_;  // index == tid; control blocks persist
  Cycles boot_clock_ = 0;
  bool allow_blocked_exit_ = false;
  std::function<Cycles(SimThread*, SimThread*)> context_switch_hook_;
};

// --- Awaitable definitions (header-only: they are glue between coroutines and the loop) -------

struct Scheduler::SleepAwaiter {
  Scheduler& sched;
  Cycles duration;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    SimThread* t = &sched.Current();
    t->pending_ = SimThread::Pending::kSleep;
    t->pending_sleep_ = duration;
    t->resume_point_ = h;
  }
  void await_resume() const noexcept {}
};

inline auto Scheduler::Sleep(Cycles duration) { return SleepAwaiter{*this, duration}; }
inline auto Scheduler::Yield() { return SleepAwaiter{*this, 0}; }

struct Scheduler::BlockAwaiter {
  Scheduler& sched;
  WaitQueue& queue;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    SimThread* t = &sched.Current();
    queue.waiters_.push_back(t);
    t->pending_ = SimThread::Pending::kBlock;
    t->resume_point_ = h;
  }
  void await_resume() const noexcept {}
};

inline auto WaitQueue::Wait() { return Scheduler::BlockAwaiter{sched_, *this}; }

struct Scheduler::ExitAwaiter {
  Scheduler& sched;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    SimThread* t = &sched.Current();
    t->pending_ = SimThread::Pending::kExit;
    t->resume_point_ = h;
  }
  void await_resume() const noexcept {}
};

inline auto Scheduler::ExitThread() { return ExitAwaiter{*this}; }

}  // namespace ufork

#endif  // UFORK_SRC_SCHED_SCHEDULER_H_
