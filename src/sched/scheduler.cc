#include "src/sched/scheduler.h"

#include <algorithm>

namespace ufork {

Scheduler::Scheduler(int num_cores) {
  UF_CHECK(num_cores >= 1);
  cores_.resize(static_cast<size_t>(num_cores));
  ready_.resize(static_cast<size_t>(1 + num_cores));
}

ThreadId Scheduler::Spawn(SimTask<void> task, std::string name, int pinned_core) {
  UF_CHECK(pinned_core >= -1 && pinned_core < num_cores());
  auto thread = std::make_unique<SimThread>();
  SimThread* t = thread.get();
  t->name_ = std::move(name);
  t->root_ = std::move(task);
  t->resume_point_ = t->root_.raw_handle();
  t->pinned_core_ = pinned_core;
  t->tid_ = threads_.size();
  threads_.push_back(std::move(thread));
  t->seq_ = next_seq_++;
  MakeReady(t, Now());
  return t->tid_;
}

void Scheduler::ReadyQueue::Push(const ReadyEntry& entry) {
  if (run_.empty() || ReadyAfter{}(entry, run_.back())) {
    run_.push_back(entry);
    return;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), ReadyAfter{});
}

SimThread* Scheduler::ReadyQueue::PopLeast() {
  if (LeastInRun()) {
    SimThread* t = run_.front().thread;
    run_.pop_front();
    return t;
  }
  std::pop_heap(heap_.begin(), heap_.end(), ReadyAfter{});
  SimThread* t = heap_.back().thread;
  heap_.pop_back();
  return t;
}

void Scheduler::ReadyQueue::Erase(const SimThread* thread) {
  auto it = std::find_if(run_.begin(), run_.end(),
                         [thread](const ReadyEntry& e) { return e.thread == thread; });
  if (it != run_.end()) {
    run_.erase(it);  // the rest of the run stays sorted
    return;
  }
  std::erase_if(heap_, [thread](const ReadyEntry& e) { return e.thread == thread; });
  std::make_heap(heap_.begin(), heap_.end(), ReadyAfter{});
}

void Scheduler::MakeReady(SimThread* thread, Cycles at) {
  thread->state_ = SimThread::State::kReady;
  thread->ready_time_ = at;
  const size_t q = QueueIndex(thread);
  ready_[q].Push(ReadyEntry{at, thread->seq_, thread});
  if (q != 0) {
    ++pinned_ready_;
  }
}

Scheduler::Candidate Scheduler::BestCandidate() const {
  // Dispatch order: among ready threads and their eligible cores, the earliest feasible start
  // max(ready_time, core.free_at), then the earlier ready time, then spawn order; the winner
  // takes the lowest-index core that achieves its start. Over a fixed core set a thread's
  // earliest start is max(ready_time, min free_at), monotone in ready_time, so each class's
  // least (ready_time, seq) entry is its winner and only the 1 + cores least entries compete:
  // O(cores) per pick; O(1) per push in key order and O(log ready) otherwise (DESIGN.md §4.1).
  Candidate best;
  const ReadyEntry* best_top = nullptr;
  auto consider = [&](size_t q, int core, Cycles free_at) {
    const ReadyEntry& top = ready_[q].Least();
    const Cycles start = std::max(top.ready, free_at);
    if (best_top == nullptr || start < best.start ||
        (start == best.start && ReadyAfter{}(*best_top, top))) {
      best = Candidate{q, core, start};
      best_top = &top;
    }
  };
  if (!ready_[0].empty()) {
    Cycles free_at = kNoCycleLimit;
    for (const Core& core : cores_) {
      free_at = std::min(free_at, core.free_at);
    }
    consider(0, -1, free_at);
  }
  if (pinned_ready_ != 0) {
    for (size_t q = 1; q < ready_.size(); ++q) {
      if (!ready_[q].empty()) {
        const int core = static_cast<int>(q) - 1;
        consider(q, core, cores_[static_cast<size_t>(core)].free_at);
      }
    }
  }
  if (best.queue == 0) {
    // Every core with free_at <= start achieves the start; take the lowest-index one.
    best.core = 0;
    while (cores_[static_cast<size_t>(best.core)].free_at > best.start) {
      ++best.core;
    }
  }
  return best;
}

SimThread* Scheduler::PickNext(int* core_out, Cycles* start_out) {
  const Candidate best = BestCandidate();
  if (best.queue == Candidate::kNoQueue) {
    return nullptr;
  }
  SimThread* t = ready_[best.queue].PopLeast();
  if (best.queue != 0) {
    --pinned_ready_;
  }
  *core_out = best.core;
  *start_out = best.start;
  return t;
}

void Scheduler::Run() {
  while (true) {
    int core_index = -1;
    Cycles start = 0;
    SimThread* t = PickNext(&core_index, &start);
    if (t == nullptr) {
      break;
    }
    Core& core = cores_[static_cast<size_t>(core_index)];

    if (core.last_thread != t) {
      ++context_switches_;
      if (context_switch_hook_) {
        start += context_switch_hook_(core.last_thread, t);
      }
    }

    t->state_ = SimThread::State::kRunning;
    t->slice_start_ = start;
    t->charged_ = 0;
    t->pending_ = SimThread::Pending::kNone;
    current_ = t;
    ++slices_;

    const std::coroutine_handle<> resume_point = t->resume_point_;
    t->resume_point_ = nullptr;
    resume_point.resume();

    current_ = nullptr;
    const Cycles end = t->slice_start_ + t->charged_;
    core.free_at = end;
    core.last_thread = t;
    completion_ = std::max(completion_, end);

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
        t->ready_time_ = end;  // block timestamp; Wake() raises it to the waker's time
        t->state_ = SimThread::State::kBlocked;
        break;
      case SimThread::Pending::kExit:
        FinishThread(t);
        break;
    }
  }
  CheckBlockedExit();
}

void Scheduler::CheckBlockedExit() const {
  if (allow_blocked_exit_) {
    return;
  }
  for (const auto& t : threads_) {
    UF_CHECK_MSG(t == nullptr || t->state() != SimThread::State::kBlocked,
                 "deadlock: thread still blocked when the scheduler drained");
  }
}

void Scheduler::FinishThread(SimThread* thread) {
  thread->state_ = SimThread::State::kDone;
  DestroyThread(thread);
}

void Scheduler::DestroyThread(SimThread* thread) {
  for (Core& core : cores_) {
    if (core.last_thread == thread) {
      core.last_thread = nullptr;
    }
  }
  thread->state_ = SimThread::State::kDone;
  // Destroys the root coroutine frame and, transitively, every nested frame. The SimThread
  // control block itself stays alive for the scheduler's lifetime so that stale pointers held
  // by wait queues remain safe to inspect (they skip kDone threads).
  thread->root_ = SimTask<void>();
  thread->resume_point_ = nullptr;
}

SimThread* Scheduler::ThreadAt(ThreadId tid) const {
  UF_CHECK(tid < threads_.size());
  return threads_[tid].get();
}

void Scheduler::Kill(ThreadId tid) {
  SimThread* t = ThreadAt(tid);
  if (t == nullptr || t->state() == SimThread::State::kDone) {
    return;  // already finished
  }
  UF_CHECK_MSG(t != current_, "a thread cannot Kill itself; co_await ExitThread() instead");
  if (t->state() == SimThread::State::kReady) {
    const size_t q = QueueIndex(t);
    ready_[q].Erase(t);
    if (q != 0) {
      --pinned_ready_;
    }
  }
  // Blocked threads are removed from their wait queue by the owner (WaitQueue::Remove); a
  // dangling waiter entry is tolerated: Wake() skips dead threads.
  DestroyThread(t);
}

bool Scheduler::IsAlive(ThreadId tid) const {
  return tid < threads_.size() && threads_[tid] != nullptr &&
         threads_[tid]->state() != SimThread::State::kDone;
}

bool Scheduler::IsBlocked(ThreadId tid) const {
  return tid < threads_.size() && threads_[tid] != nullptr &&
         threads_[tid]->state() == SimThread::State::kBlocked;
}

void Scheduler::SetThreadContext(ThreadId tid, void* context) {
  SimThread* t = ThreadAt(tid);
  UF_CHECK(t != nullptr);
  t->set_context(context);
}

uint64_t WaitQueue::Wake(uint64_t n) {
  const Cycles wake_time = sched_.Now();
  uint64_t woken = 0;
  while (woken < n && !waiters_.empty()) {
    SimThread* t = waiters_.front();
    waiters_.pop_front();
    if (t->state() != SimThread::State::kBlocked) {
      continue;  // killed while blocked
    }
    sched_.MakeReady(t, std::max(t->ready_time_, wake_time) + resume_delay_);
    ++woken;
  }
  return woken;
}

bool WaitQueue::Remove(SimThread* thread) {
  auto it = std::find(waiters_.begin(), waiters_.end(), thread);
  if (it == waiters_.end()) {
    return false;
  }
  waiters_.erase(it);
  return true;
}

}  // namespace ufork
