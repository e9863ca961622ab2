// Discrete-event scheduler with a virtual clock, K simulated cores and N host shards.
//
// Threads are coroutines (SimTask<void>); the scheduler models parallel execution across
// simulated cores in virtual time:
//
//   * While running, a thread charges cycles (Charge); its slice occupies its core for exactly
//     the charged duration.
//   * Dispatch picks, among ready threads, the one that can *start earliest* on an eligible
//     core (respecting pinning), breaking ties by ready time then spawn order — this keeps
//     virtual-time causality: a thread never observes effects from a virtually-later slice.
//     Ready threads sit in min-heaps keyed (ready time, spawn order), one for unpinned threads
//     and one per pinned core, so a dispatch compares only the heap tops (DESIGN.md §4.1).
//   * Blocking (wait queues, sleeping, lock contention) releases the core.
//
// With ShardConfig::shards == 1 (the default) the host executes one slice at a time on the
// calling thread and everything is deterministic: no host time, no host threads, explicit
// tie-breaking — bit-identical to the historical single-threaded scheduler.
//
// With shards > 1 (DESIGN.md §4.11) the cores are partitioned into N disjoint shards, each
// driven by a dedicated host worker thread with its own run queue, spawn-sequence counter and
// core set. Virtual time advances in epochs: the coordinator computes a horizon (the earliest
// pending slice start across shards plus an epoch quantum), the workers run their shards up
// to that horizon in parallel, and cross-shard interactions (wakes, spawns) accumulate as
// mailbox events that the coordinator drains at the epoch barrier in a deterministic order
// (virtual timestamp, then sending shard, then per-shard emission sequence). A thread is
// pinned to its shard for life, so all intra-shard scheduling stays single-threaded and
// deterministic; cross-shard event *timestamps* are virtual times stamped at the sender, so
// barrier placement affects host time only, never guest-visible virtual time.
#ifndef UFORK_SRC_SCHED_SCHEDULER_H_
#define UFORK_SRC_SCHED_SCHEDULER_H_

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/units.h"
#include "src/sched/shard.h"
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
  State state() const { return state_.load(std::memory_order_relaxed); }
  int pinned_core() const { return pinned_core_; }
  int shard() const { return shard_; }
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

  Cycles ready_time() const { return ready_time_.load(std::memory_order_relaxed); }
  void set_ready_time(Cycles t) { ready_time_.store(t, std::memory_order_relaxed); }
  void set_state(State s) { state_.store(s, std::memory_order_relaxed); }

  ThreadId tid_ = kInvalidThread;
  std::string name_;
  SimTask<void> root_;
  std::coroutine_handle<> resume_point_;  // innermost suspended frame
  // state/ready_time are written by the owning shard's worker (or the coordinator at a
  // barrier) and read cross-shard by WaitQueue::Wake routing. Relaxed atomics suffice: every
  // cross-shard decision made from them is re-validated at the epoch barrier, where the
  // barrier itself orders memory.
  std::atomic<State> state_{State::kReady};
  std::atomic<Cycles> ready_time_{0};  // earliest virtual time the thread may start a slice
  int pinned_core_ = -1;               // -1: any core (within the thread's shard)
  int shard_ = 0;                      // owning shard; fixed for the thread's lifetime
  void* context_ = nullptr;

  Cycles slice_start_ = 0;  // start of the current/last slice
  Cycles charged_ = 0;      // cycles charged in the current slice
  Pending pending_ = Pending::kNone;
  Cycles pending_sleep_ = 0;
  uint64_t seq_ = 0;  // per-shard spawn order, deterministic tie-break
};

// FIFO wait queue in virtual time. Wakers stamp woken threads with the waker's current time,
// so a thread blocked at t=100 woken by a thread at t=250 becomes ready at 250 — plus an
// optional resume delay modeling the wakeup latency (IPI + scheduler path) of the object this
// queue guards. The delay applies only when the thread actually blocked, matching hardware:
// a reader that finds data ready pays nothing.
//
// Sharded mode: the waiter list is mutex-protected, and waking a thread that lives on another
// shard enqueues a mailbox event delivered at the next epoch barrier instead of touching the
// remote run queue. A remote wake arrives at max(block time, waker time + resume delay).
class WaitQueue {
 public:
  explicit WaitQueue(Scheduler& sched) : sched_(sched) {}

  void set_resume_delay(Cycles delay) { resume_delay_ = delay; }

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Awaitable: blocks the calling thread until woken.
  auto Wait();

  // Two-phase wait (condition-variable protocol for state guarded by a host mutex): registers
  // the calling thread NOW, so the caller can release the guarding lock before suspending on
  // the returned awaiter. A waker that mutates the guarded state after the lock is released is
  // then guaranteed to observe the registration — no wakeup can fall into the gap between the
  // state check and the suspension. Between PrepareWait() and co_await the caller must not
  // suspend, and must not wake this queue. Delivery of a wake to a registered-but-running
  // thread cannot happen: same-shard wakes share the worker thread, and cross-shard wakes are
  // mailbox events drained only at epoch barriers, after every coroutine step has returned.
  auto PrepareWait();

  // Wakes up to n threads (front of the queue). Returns the number woken (cross-shard wakes
  // count optimistically; a waiter killed before the barrier delivers is dropped there).
  uint64_t Wake(uint64_t n = 1);
  uint64_t WakeAll() { return Wake(~0ULL); }

  bool empty() const {
    std::lock_guard<std::mutex> lk(mu_);
    return waiters_.empty();
  }
  uint64_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return waiters_.size();
  }

  // Removes a specific thread (used when killing a blocked thread).
  bool Remove(SimThread* thread);

 private:
  friend class Scheduler;
  friend class VirtualLock;
  Scheduler& sched_;
  Cycles resume_delay_ = 0;
  mutable std::mutex mu_;  // uncontended at shards=1; guards waiters_ across shards
  std::deque<SimThread*> waiters_;
};

class Scheduler {
 public:
  explicit Scheduler(int num_cores, const ShardConfig& shard_config = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Creates a thread from a coroutine. Ready at the spawner's current time (or t=0 outside of
  // execution). pinned_core = -1 lets it run anywhere (within its shard). Shard selection:
  // a pinned core dictates its shard; otherwise shard_hint (from the kernel's deterministic
  // pid-keyed placement); otherwise the spawner's own shard (shard 0 at boot).
  ThreadId Spawn(SimTask<void> task, std::string name, int pinned_core = -1,
                 int shard_hint = -1);

  // Runs until no thread is runnable. UF_CHECKs on deadlock (blocked threads remain) unless
  // allow_blocked_exit is set (servers parked on wait queues at the end of a benchmark).
  void Run();
  void set_allow_blocked_exit(bool allow) { allow_blocked_exit_ = allow; }

  // --- Called from within running coroutines --------------------------------------------------

  SimThread& Current() {
    SimThread* t = ExecThread();
    UF_CHECK_MSG(t != nullptr, "no running simulated thread");
    return *t;
  }
  bool InThread() const { return ExecThread() != nullptr; }

  // Charges virtual CPU time to the current slice. On every simulated memory access, so the
  // unsharded branch must stay at the historical member-pointer cost (no TLS, no RMW).
  void Charge(Cycles cycles) {
    SimThread* t = ExecThread();
    if (t != nullptr) [[likely]] {
      t->charged_ += cycles;
      return;
    }
    // Charged during boot or from the epoch coordinator, before/between thread slices.
    if (sharded_) {
      boot_clock_.fetch_add(cycles, std::memory_order_relaxed);
    } else {
      boot_clock_.store(boot_clock_.load(std::memory_order_relaxed) + cycles,
                        std::memory_order_relaxed);
    }
  }

  // Current virtual time from the caller's perspective.
  Cycles Now() const {
    const SimThread* t = ExecThread();
    return t != nullptr ? t->now() : boot_clock_.load(std::memory_order_relaxed);
  }

  // Virtual time at which the last completed Run() drained (max over cores of all shards).
  Cycles CompletionTime() const;

  // Awaitables.
  auto Sleep(Cycles duration);
  auto Yield();

  // Terminates the current thread at its next suspension point. Prefer letting the root
  // coroutine return; this is for kill paths.
  auto ExitThread();

  // Forcefully destroys a thread (SIGKILL). Must not be the current thread. During a parallel
  // epoch the victim must live on the calling worker's own shard — cross-shard kills are
  // deferred to an epoch barrier by the kernel (KernelCore::QueueCrossShardKill).
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
  int num_shards() const { return static_cast<int>(shards_.size()); }
  uint64_t context_switches() const;
  uint64_t slices_executed() const;

  // Shard of the executing worker thread, or -1 on the coordinator/boot thread.
  int CurrentShardIndex() const { return tls_exec_.sched == this ? tls_exec_.shard : -1; }
  // Owning shard of a thread (fixed at spawn).
  int ThreadShard(ThreadId tid) const;
  // The shard whose core range covers global core `core` (0 when unsharded).
  int ShardOfCore(int core) const { return sharded_ ? core / cores_per_shard_ : 0; }
  // True while shard workers are executing an epoch (between barriers).
  bool InParallelPhase() const { return parallel_phase_.load(std::memory_order_relaxed); }

  // Registers a hook run by the coordinator at every epoch barrier (after the mailbox drain),
  // while all shards are quiescent. The kernel uses this for deferred cross-shard teardown.
  // Sharded mode only; must be registered before Run().
  void AddBarrierHook(std::function<void()> hook) {
    barrier_hooks_.push_back(std::move(hook));
  }

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
  using ReadyHeap = std::vector<ReadyEntry>;
  // The "less" comparator that makes std::push_heap/pop_heap keep a min-heap on (ready, seq).
  // A function object rather than a function pointer, so the heap sifts inline it.
  struct ReadyAfter {
    bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
      return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
    }
  };

  // Shard-local scheduler state. Owned by the shard's worker during an epoch; touched by the
  // coordinator only between epochs (barriers order the handoff).
  struct alignas(64) Shard {
    int index = 0;
    int core_lo = 0;  // global core range [core_lo, core_hi) owned by this shard
    int core_hi = 0;
    // ready[0] holds unpinned threads; ready[1 + c - core_lo] those pinned to core c.
    std::vector<ReadyHeap> ready;
    size_t pinned_ready = 0;    // entries across the pinned heaps; 0 skips their scan
    Cycles completion = 0;      // max slice end observed on this shard
    uint64_t next_seq = 0;      // spawn-order tie-break counter
    uint64_t event_seq = 0;     // stamps outgoing cross-shard events deterministically
    uint64_t context_switches = 0;
    uint64_t slices = 0;
  };

  // Cross-shard mailbox event, drained at epoch barriers in (at, src_shard, src_seq) order.
  struct ShardEvent {
    enum class Kind { kWake, kSpawn };
    Kind kind;
    SimThread* thread;
    Cycles at;
    uint32_t src_shard;
    uint64_t src_seq;
  };

  // The ready thread dispatch would pick next on a shard: which heap's top, on which core,
  // starting when. heap == kNoHeap when the shard has no ready thread.
  struct Candidate {
    static constexpr size_t kNoHeap = ~size_t{0};
    size_t heap = kNoHeap;
    int core = -1;
    Cycles start = kNoCycleLimit;
  };

  struct ExecContext {
    Scheduler* sched = nullptr;
    int shard = -1;
    SimThread* thread = nullptr;
  };
  // constinit: constant-initialised, so accesses need no TLS init wrapper. Under g++ 12 with
  // -fsanitize=address,undefined the wrapper path reports member access through null.
  static constinit thread_local ExecContext tls_exec_;

  // The simulated thread executing on the calling host thread, or nullptr. Unsharded mode
  // keeps a plain member mirror (current_) so the per-access Charge path pays no TLS reads.
  SimThread* ExecThread() const {
    if (!sharded_) {
      return current_;
    }
    return tls_exec_.sched == this ? tls_exec_.thread : nullptr;
  }

  struct SleepAwaiter;
  struct BlockAwaiter;
  struct PreparedBlockAwaiter;
  struct ExitAwaiter;

  void MakeReady(SimThread* thread, Cycles at);
  // Routes a wake from WaitQueue::Wake: directly onto the target's run queue when safe
  // (same shard, or no epoch in flight), else into the mailbox. Returns whether it counted.
  bool RouteWake(SimThread* thread, Cycles wake_time, Cycles resume_delay);
  void EnqueueEvent(ShardEvent::Kind kind, SimThread* thread, Cycles at);
  static size_t HeapIndex(const Shard& shard, const SimThread* thread) {
    if (thread->pinned_core_ < 0) {
      return 0;
    }
    return static_cast<size_t>(1 + thread->pinned_core_ - shard.core_lo);
  }
  Candidate BestCandidate(const Shard& shard) const;
  SimThread* PickNext(Shard& shard, Cycles horizon, int* core_out, Cycles* start_out);
  int TargetShard(int pinned_core, int shard_hint) const;
  SimThread* ThreadAt(ThreadId tid) const;
  void RunShardUntil(Shard& shard, Cycles horizon);
  void RunSharded();
  void DrainBarrierEvents();
  void CheckBlockedExit() const;
  void FinishThread(SimThread* thread);
  void DestroyThread(SimThread* thread);

  const bool sharded_;
  const int cores_per_shard_;
  const Cycles epoch_quantum_;
  SimThread* current_ = nullptr;  // unsharded-mode mirror of tls_exec_.thread (see ExecThread)
  std::vector<Core> cores_;
  std::vector<Shard> shards_;
  mutable std::mutex spawn_mu_;  // guards threads_ growth and tid lookups when sharded
  std::deque<std::unique_ptr<SimThread>> threads_;  // index == tid; control blocks persist
  std::mutex events_mu_;
  std::vector<ShardEvent> events_;
  std::vector<std::function<void()>> barrier_hooks_;
  std::atomic<bool> parallel_phase_{false};
  std::atomic<Cycles> boot_clock_{0};
  Cycles horizon_ = 0;  // written by the coordinator between epochs, read by workers
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
    {
      std::lock_guard<std::mutex> lk(queue.mu_);
      queue.waiters_.push_back(t);
    }
    t->pending_ = SimThread::Pending::kBlock;
    t->resume_point_ = h;
  }
  void await_resume() const noexcept {}
};

inline auto WaitQueue::Wait() { return Scheduler::BlockAwaiter{sched_, *this}; }

// Registration already happened in PrepareWait(); this awaiter only parks the thread.
struct Scheduler::PreparedBlockAwaiter {
  Scheduler& sched;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    SimThread* t = &sched.Current();
    t->pending_ = SimThread::Pending::kBlock;
    t->resume_point_ = h;
  }
  void await_resume() const noexcept {}
};

inline auto WaitQueue::PrepareWait() {
  SimThread* t = &sched_.Current();
  {
    std::lock_guard<std::mutex> lk(mu_);
    waiters_.push_back(t);
  }
  return Scheduler::PreparedBlockAwaiter{sched_};
}

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
