#include "src/sched/scheduler.h"

#include <algorithm>
#include <barrier>
#include <thread>

#include "src/base/host_shard.h"
#include "src/base/log.h"

namespace ufork {

constinit thread_local Scheduler::ExecContext Scheduler::tls_exec_;

Scheduler::Scheduler(int num_cores, const ShardConfig& shard_config)
    : sharded_(shard_config.shards > 1),
      cores_per_shard_(num_cores / std::max(1, shard_config.shards)),
      epoch_quantum_(shard_config.epoch_quantum) {
  UF_CHECK(num_cores >= 1);
  UF_CHECK(shard_config.shards >= 1);
  UF_CHECK_MSG(num_cores % shard_config.shards == 0,
               "core count must be divisible by the shard count");
  cores_.resize(static_cast<size_t>(num_cores));
  shards_.resize(static_cast<size_t>(shard_config.shards));
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].index = static_cast<int>(s);
    shards_[s].core_lo = static_cast<int>(s) * cores_per_shard_;
    shards_[s].core_hi = shards_[s].core_lo + cores_per_shard_;
    shards_[s].ready.resize(static_cast<size_t>(1 + cores_per_shard_));
  }
}

int Scheduler::TargetShard(int pinned_core, int shard_hint) const {
  if (!sharded_) {
    return 0;
  }
  if (pinned_core >= 0) {
    return pinned_core / cores_per_shard_;
  }
  if (shard_hint >= 0) {
    UF_CHECK(shard_hint < num_shards());
    return shard_hint;
  }
  if (tls_exec_.sched == this && tls_exec_.shard >= 0) {
    return tls_exec_.shard;  // inherit the spawner's shard
  }
  return 0;
}

ThreadId Scheduler::Spawn(SimTask<void> task, std::string name, int pinned_core,
                          int shard_hint) {
  UF_CHECK(pinned_core >= -1 && pinned_core < num_cores());
  const int shard = TargetShard(pinned_core, shard_hint);
  auto thread = std::make_unique<SimThread>();
  SimThread* t = thread.get();
  t->name_ = std::move(name);
  t->root_ = std::move(task);
  t->resume_point_ = t->root_.raw_handle();
  t->pinned_core_ = pinned_core;
  t->shard_ = shard;
  const Cycles at = Now();
  {
    std::lock_guard<std::mutex> lk(spawn_mu_);
    t->tid_ = threads_.size();
    threads_.push_back(std::move(thread));
  }
  const bool remote = sharded_ && parallel_phase_.load(std::memory_order_relaxed) &&
                      tls_exec_.shard != shard;
  if (remote) {
    // The spawn-order seq is assigned from the target shard's counter when the event is
    // delivered at the barrier, keeping the tie-break deterministic on the owning shard.
    EnqueueEvent(ShardEvent::Kind::kSpawn, t, at);
  } else {
    t->seq_ = shards_[static_cast<size_t>(shard)].next_seq++;
    MakeReady(t, at);
  }
  return t->tid_;
}

void Scheduler::MakeReady(SimThread* thread, Cycles at) {
  thread->set_state(SimThread::State::kReady);
  thread->set_ready_time(at);
  Shard& shard = shards_[static_cast<size_t>(thread->shard_)];
  const size_t h = HeapIndex(shard, thread);
  ReadyHeap& heap = shard.ready[h];
  heap.push_back(ReadyEntry{at, thread->seq_, thread});
  std::push_heap(heap.begin(), heap.end(), ReadyAfter{});
  if (h != 0) {
    ++shard.pinned_ready;
  }
}

void Scheduler::EnqueueEvent(ShardEvent::Kind kind, SimThread* thread, Cycles at) {
  UF_CHECK(tls_exec_.sched == this && tls_exec_.shard >= 0);
  Shard& src = shards_[static_cast<size_t>(tls_exec_.shard)];
  std::lock_guard<std::mutex> lk(events_mu_);
  events_.push_back(ShardEvent{kind, thread, at, static_cast<uint32_t>(src.index),
                               src.event_seq++});
}

bool Scheduler::RouteWake(SimThread* thread, Cycles wake_time, Cycles resume_delay) {
  const bool remote = sharded_ && parallel_phase_.load(std::memory_order_relaxed) &&
                      tls_exec_.sched == this && tls_exec_.shard != thread->shard_;
  if (!remote) {
    if (thread->state() != SimThread::State::kBlocked) {
      return false;  // killed while blocked, or never blocked
    }
    MakeReady(thread, std::max(thread->ready_time(), wake_time) + resume_delay);
    return true;
  }
  // Cross-shard: deliver at the next epoch barrier. The target may still be mid-slice (it
  // pushed itself onto the wait queue but its shard has not marked it blocked yet), so state
  // is validated at delivery, not here. The virtual arrival time is stamped now, from the
  // sender's clock: barrier placement delays host time only.
  EnqueueEvent(ShardEvent::Kind::kWake, thread, wake_time + resume_delay);
  return true;
}

Scheduler::Candidate Scheduler::BestCandidate(const Shard& shard) const {
  // Dispatch order: among ready threads and their eligible cores, the earliest feasible start
  // max(ready_time, core.free_at), then the earlier ready time, then spawn order; the winner
  // takes the lowest-index core that achieves its start. Over a fixed core set a thread's
  // earliest start is max(ready_time, min free_at), monotone in ready_time, so each heap's top
  // (least (ready_time, seq)) is its class's winner and only the 1 + cores-per-shard tops
  // compete: O(cores) per pick, O(log ready) per push and pop (DESIGN.md §4.1).
  Candidate best;
  const ReadyEntry* best_top = nullptr;
  auto consider = [&](size_t h, int core, Cycles free_at) {
    const ReadyEntry& top = shard.ready[h].front();
    const Cycles start = std::max(top.ready, free_at);
    if (best_top == nullptr || start < best.start ||
        (start == best.start && ReadyAfter{}(*best_top, top))) {
      best = Candidate{h, core, start};
      best_top = &top;
    }
  };
  if (!shard.ready[0].empty()) {
    Cycles free_at = kNoCycleLimit;
    for (int c = shard.core_lo; c < shard.core_hi; ++c) {
      free_at = std::min(free_at, cores_[static_cast<size_t>(c)].free_at);
    }
    consider(0, -1, free_at);
  }
  if (shard.pinned_ready != 0) {
    for (size_t h = 1; h < shard.ready.size(); ++h) {
      if (!shard.ready[h].empty()) {
        const int core = shard.core_lo + static_cast<int>(h) - 1;
        consider(h, core, cores_[static_cast<size_t>(core)].free_at);
      }
    }
  }
  if (best.heap == 0) {
    // Every core with free_at <= start achieves the start; take the lowest-index one.
    best.core = shard.core_lo;
    while (cores_[static_cast<size_t>(best.core)].free_at > best.start) {
      ++best.core;
    }
  }
  return best;
}

SimThread* Scheduler::PickNext(Shard& shard, Cycles horizon, int* core_out,
                               Cycles* start_out) {
  const Candidate best = BestCandidate(shard);
  if (best.heap == Candidate::kNoHeap || best.start >= horizon) {
    return nullptr;  // nothing ready, or its start falls in a later epoch; leave it queued
  }
  ReadyHeap& heap = shard.ready[best.heap];
  std::pop_heap(heap.begin(), heap.end(), ReadyAfter{});
  SimThread* t = heap.back().thread;
  heap.pop_back();
  if (best.heap != 0) {
    --shard.pinned_ready;
  }
  *core_out = best.core;
  *start_out = best.start;
  return t;
}

void Scheduler::RunShardUntil(Shard& shard, Cycles horizon) {
  tls_exec_ = ExecContext{this, shard.index, nullptr};
  tls_host_shard = sharded_ ? shard.index : -1;
  while (true) {
    int core_index = -1;
    Cycles start = 0;
    SimThread* t = PickNext(shard, horizon, &core_index, &start);
    if (t == nullptr) {
      break;
    }
    Core& core = cores_[static_cast<size_t>(core_index)];

    if (core.last_thread != t) {
      ++shard.context_switches;
      if (context_switch_hook_) {
        start += context_switch_hook_(core.last_thread, t);
      }
    }

    t->set_state(SimThread::State::kRunning);
    t->slice_start_ = start;
    t->charged_ = 0;
    t->pending_ = SimThread::Pending::kNone;
    tls_exec_.thread = t;
    if (!sharded_) {
      current_ = t;  // member mirror: the unsharded Charge fast path reads this, not TLS
    }
    ++shard.slices;

    const std::coroutine_handle<> resume_point = t->resume_point_;
    t->resume_point_ = nullptr;
    resume_point.resume();

    tls_exec_.thread = nullptr;
    if (!sharded_) {
      current_ = nullptr;
    }
    const Cycles end = t->slice_start_ + t->charged_;
    core.free_at = end;
    core.last_thread = t;
    shard.completion = std::max(shard.completion, end);

    switch (t->pending_) {
      case SimThread::Pending::kNone:
        // No scheduler awaitable captured a resume point: the root coroutine ran to completion.
        UF_CHECK_MSG(t->root_.done(), "thread suspended outside a scheduler awaitable");
        FinishThread(t);
        break;
      case SimThread::Pending::kYield:
      case SimThread::Pending::kSleep:
        MakeReady(t, end + t->pending_sleep_);
        t->pending_sleep_ = 0;
        break;
      case SimThread::Pending::kBlock:
        // Block timestamp; Wake() raises it to the waker's time. Order matters for remote
        // wakes validated at the barrier: the timestamp must be in place before the state.
        t->set_ready_time(end);
        t->set_state(SimThread::State::kBlocked);
        break;
      case SimThread::Pending::kExit:
        FinishThread(t);
        break;
    }
  }
  tls_exec_ = ExecContext{};
  tls_host_shard = -1;
}

void Scheduler::DrainBarrierEvents() {
  std::vector<ShardEvent> events;
  {
    std::lock_guard<std::mutex> lk(events_mu_);
    events.swap(events_);
  }
  // Deterministic merge: virtual arrival time, then sending shard, then the sender's own
  // emission order. Every key component is a pure function of shard-local execution, so the
  // drain order is independent of host thread timing.
  std::stable_sort(events.begin(), events.end(),
                   [](const ShardEvent& a, const ShardEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.src_shard != b.src_shard) return a.src_shard < b.src_shard;
                     return a.src_seq < b.src_seq;
                   });
  for (const ShardEvent& e : events) {
    if (e.thread->state() == SimThread::State::kDone) {
      continue;  // killed before delivery
    }
    switch (e.kind) {
      case ShardEvent::Kind::kSpawn:
        e.thread->seq_ = shards_[static_cast<size_t>(e.thread->shard_)].next_seq++;
        MakeReady(e.thread, e.at);
        break;
      case ShardEvent::Kind::kWake:
        if (e.thread->state() == SimThread::State::kBlocked) {
          // Re-max against the authoritative block timestamp: the sender may have raced the
          // target's suspension and read a stale ready time.
          MakeReady(e.thread, std::max(e.thread->ready_time(), e.at));
        }
        break;
    }
  }
}

void Scheduler::Run() {
  if (!sharded_) {
    RunShardUntil(shards_[0], kNoCycleLimit);
    CheckBlockedExit();
    return;
  }
  RunSharded();
}

void Scheduler::RunSharded() {
  const size_t n = shards_.size();
  std::barrier<> start_gate(static_cast<std::ptrdiff_t>(n + 1));
  std::barrier<> end_gate(static_cast<std::ptrdiff_t>(n + 1));
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    workers.emplace_back([this, s, &start_gate, &end_gate, &stop] {
      for (;;) {
        start_gate.arrive_and_wait();
        if (stop.load(std::memory_order_acquire)) {
          return;
        }
        RunShardUntil(shards_[s], horizon_);
        end_gate.arrive_and_wait();
      }
    });
  }

  for (;;) {
    // Coordinator section: all shards quiescent (or not yet started). Mailbox events first,
    // then the kernel's barrier hooks (deferred cross-shard teardown), which may ready more
    // threads directly.
    DrainBarrierEvents();
    for (const auto& hook : barrier_hooks_) {
      hook();
    }
    Cycles next = kNoCycleLimit;
    for (const Shard& sh : shards_) {
      next = std::min(next, BestCandidate(sh).start);
    }
    if (next == kNoCycleLimit) {
      break;  // no runnable thread anywhere, and the drain produced none
    }
    // Advance the coordinator clock so out-of-thread charges/wakes made by barrier hooks are
    // stamped no earlier than the work they follow.
    Cycles boot = boot_clock_.load(std::memory_order_relaxed);
    if (boot < next) {
      boot_clock_.store(next, std::memory_order_relaxed);
    }
    horizon_ = next + epoch_quantum_;
    parallel_phase_.store(true, std::memory_order_release);
    start_gate.arrive_and_wait();
    end_gate.arrive_and_wait();
    parallel_phase_.store(false, std::memory_order_release);
  }

  stop.store(true, std::memory_order_release);
  start_gate.arrive_and_wait();
  for (std::thread& w : workers) {
    w.join();
  }
  CheckBlockedExit();
}

void Scheduler::CheckBlockedExit() const {
  if (allow_blocked_exit_) {
    return;
  }
  std::lock_guard<std::mutex> lk(spawn_mu_);
  for (const auto& t : threads_) {
    UF_CHECK_MSG(t == nullptr || t->state() != SimThread::State::kBlocked,
                 "deadlock: thread still blocked when the scheduler drained");
  }
}

void Scheduler::FinishThread(SimThread* thread) {
  thread->set_state(SimThread::State::kDone);
  DestroyThread(thread);
}

void Scheduler::DestroyThread(SimThread* thread) {
  const Shard& sh = shards_[static_cast<size_t>(thread->shard_)];
  for (int c = sh.core_lo; c < sh.core_hi; ++c) {
    if (cores_[static_cast<size_t>(c)].last_thread == thread) {
      cores_[static_cast<size_t>(c)].last_thread = nullptr;
    }
  }
  thread->set_state(SimThread::State::kDone);
  // Destroys the root coroutine frame and, transitively, every nested frame. The SimThread
  // control block itself stays alive for the scheduler's lifetime so that stale pointers held
  // by wait queues remain safe to inspect (they skip kDone threads).
  thread->root_ = SimTask<void>();
  thread->resume_point_ = nullptr;
}

SimThread* Scheduler::ThreadAt(ThreadId tid) const {
  std::lock_guard<std::mutex> lk(spawn_mu_);
  UF_CHECK(tid < threads_.size());
  return threads_[tid].get();
}

void Scheduler::Kill(ThreadId tid) {
  SimThread* t = ThreadAt(tid);
  if (t == nullptr || t->state() == SimThread::State::kDone) {
    return;  // already finished
  }
  UF_CHECK_MSG(t != tls_exec_.thread,
               "a thread cannot Kill itself; co_await ExitThread() instead");
  UF_CHECK_MSG(!(sharded_ && parallel_phase_.load(std::memory_order_relaxed)) ||
                   (tls_exec_.sched == this && tls_exec_.shard == t->shard_),
               "cross-shard Kill during an epoch; defer it to a barrier "
               "(KernelCore::QueueCrossShardKill)");
  if (t->state() == SimThread::State::kReady) {
    Shard& shard = shards_[static_cast<size_t>(t->shard_)];
    const size_t h = HeapIndex(shard, t);
    ReadyHeap& heap = shard.ready[h];
    std::erase_if(heap, [t](const ReadyEntry& e) { return e.thread == t; });
    std::make_heap(heap.begin(), heap.end(), ReadyAfter{});
    if (h != 0) {
      --shard.pinned_ready;
    }
  }
  // Blocked threads are removed from their wait queue by the owner (WaitQueue::Remove); a
  // dangling waiter entry is tolerated: Wake() skips dead threads.
  DestroyThread(t);
}

bool Scheduler::IsAlive(ThreadId tid) const {
  std::lock_guard<std::mutex> lk(spawn_mu_);
  return tid < threads_.size() && threads_[tid] != nullptr &&
         threads_[tid]->state() != SimThread::State::kDone;
}

bool Scheduler::IsBlocked(ThreadId tid) const {
  std::lock_guard<std::mutex> lk(spawn_mu_);
  return tid < threads_.size() && threads_[tid] != nullptr &&
         threads_[tid]->state() == SimThread::State::kBlocked;
}

void Scheduler::SetThreadContext(ThreadId tid, void* context) {
  SimThread* t = ThreadAt(tid);
  UF_CHECK(t != nullptr);
  t->set_context(context);
}

int Scheduler::ThreadShard(ThreadId tid) const {
  SimThread* t = ThreadAt(tid);
  UF_CHECK(t != nullptr);
  return t->shard_;
}

Cycles Scheduler::CompletionTime() const {
  Cycles max_completion = 0;
  for (const Shard& sh : shards_) {
    max_completion = std::max(max_completion, sh.completion);
  }
  return max_completion;
}

uint64_t Scheduler::context_switches() const {
  uint64_t total = 0;
  for (const Shard& sh : shards_) {
    total += sh.context_switches;
  }
  return total;
}

uint64_t Scheduler::slices_executed() const {
  uint64_t total = 0;
  for (const Shard& sh : shards_) {
    total += sh.slices;
  }
  return total;
}

uint64_t WaitQueue::Wake(uint64_t n) {
  const Cycles wake_time = sched_.Now();
  uint64_t woken = 0;
  std::lock_guard<std::mutex> lk(mu_);
  while (woken < n && !waiters_.empty()) {
    SimThread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state() == SimThread::State::kDone) {
      continue;  // killed while blocked
    }
    if (sched_.RouteWake(t, wake_time, resume_delay_)) {
      ++woken;
    }
  }
  return woken;
}

bool WaitQueue::Remove(SimThread* thread) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = std::find(waiters_.begin(), waiters_.end(), thread);
  if (it == waiters_.end()) {
    return false;
  }
  waiters_.erase(it);
  return true;
}

}  // namespace ufork
