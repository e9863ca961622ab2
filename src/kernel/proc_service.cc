#include "src/kernel/proc_service.h"

#include <algorithm>
#include <vector>

#include "src/kernel/fault_around.h"
#include "src/kernel/kernel.h"
#include "src/kernel/syscall_scope.h"

namespace ufork {

SimTask<Result<Pid>> ProcService::Fork(Uproc& caller, UprocEntry child_entry) {
  // Admission is the front door (DESIGN.md §4.10): it runs before the syscall enters its
  // kernel section, so a refused creation holds no lock and never pays for construction it
  // would only roll back. Existing μprocesses are never throttled.
  if (auto admitted = kernel_.admission().Admit(); !admitted.ok()) {
    co_return admitted.error();
  }
  SyscallScope scope(kernel_, caller, Sys::kFork);
  co_await scope.Enter();
  const Cycles start = kernel_.sched().Now();
  auto child = kernel_.backend().Fork(kernel_, caller, std::move(child_entry));
  if (child.ok()) {
    ++kernel_.stats().forks;
    ++caller.forks_performed;
    Uproc* child_proc = kernel_.FindUproc(*child);
    UF_CHECK(child_proc != nullptr);
    child_proc->fork_stats.latency = kernel_.sched().Now() - start;
  }
  co_return child;
}

SimTask<Result<WaitResult>> ProcService::Wait(Uproc& caller) {
  co_await DeliverSignals(caller);
  SyscallScope scope(kernel_, caller, Sys::kWait);
  co_await scope.Enter();
  for (;;) {
    Uproc* zombie = nullptr;
    bool has_children = false;
    for (Pid child_pid : caller.children) {
      Uproc* child = kernel_.FindUproc(child_pid);
      if (child == nullptr) {
        continue;
      }
      has_children = true;
      if (child->state == Uproc::State::kZombie) {
        zombie = child;
        break;
      }
    }
    if (zombie != nullptr) {
      const WaitResult result{zombie->pid(), zombie->exit_code};
      ReapZombie(*zombie);
      kernel_.machine().Charge(kernel_.costs().sched_wakeup);
      co_return result;
    }
    if (!has_children) {
      co_return Error{Code::kErrChild, "wait() with no children"};
    }
    scope.Leave();
    co_await caller.child_wait.Wait();
    co_await scope.Reacquire();
  }
}

void ProcService::OrphanChildren(Uproc& dying) {
  // Reparent running children to init (pid 1); reap zombie children now.
  Uproc* init = kernel_.FindUproc(1);
  const bool init_alive = init != nullptr && init->state == Uproc::State::kRunning &&
                          init->pid() != dying.pid();
  for (Pid child_pid : std::vector<Pid>(dying.children)) {
    Uproc* child = kernel_.FindUproc(child_pid);
    if (child == nullptr) {
      continue;
    }
    if (child->state == Uproc::State::kZombie) {
      ReapZombie(*child);
    } else {
      // A fully orphaned child self-reaps at its own exit.
      child->parent_pid = init_alive ? 1 : kInvalidPid;
      if (init_alive) {
        init->children.push_back(child_pid);
      }
    }
  }
  dying.children.clear();
}

void ProcService::ReapZombie(Uproc& zombie) {
  if (Uproc* parent = kernel_.FindUproc(zombie.parent_pid)) {
    auto& kids = parent->children;
    kids.erase(std::remove(kids.begin(), kids.end(), zombie.pid()), kids.end());
  }
  zombie.state = Uproc::State::kDead;
  kernel_.EraseUproc(zombie.pid());
}

SimTask<void> ProcService::Exit(Uproc& caller, int code) {
  SyscallScope scope(kernel_, caller, Sys::kExit);
  co_await scope.Enter();
  Machine& machine = kernel_.machine();
  Scheduler& sched = kernel_.sched();
  machine.Charge(kernel_.costs().proc_teardown);
  ++kernel_.stats().exits;
  caller.exit_code = code;
  caller.state = Uproc::State::kZombie;
  // exit() terminates the whole μprocess: every sibling thread dies with it (POSIX).
  for (const ThreadId tid : caller.threads) {
    if (sched.IsAlive(tid) && (!sched.InThread() || tid != sched.Current().tid())) {
      sched.Kill(tid);
    }
  }
  caller.threads.clear();
  FaultAroundAccountExitWaste(kernel_, caller);
  caller.fds->CloseAll();
  kernel_.ReleaseUprocMemory(caller);
  OrphanChildren(caller);
  // Wake the parent (SIGCHLD delivery) or self-reap when orphaned.
  Uproc* parent = kernel_.FindUproc(caller.parent_pid);
  if (parent != nullptr && parent->state == Uproc::State::kRunning) {
    machine.Charge(kernel_.costs().sched_wakeup);
    parent->signals.Raise(kSigChld);
    parent->child_wait.WakeAll();
  } else {
    ReapZombie(caller);
  }
  scope.Leave();
  co_await sched.ExitThread();
}

SimTask<Result<Pid>> ProcService::GetPid(Uproc& caller) {
  SyscallScope scope(kernel_, caller, Sys::kGetPid);
  co_await scope.Enter();
  co_return caller.pid();
}

SimTask<Result<Pid>> ProcService::GetPPid(Uproc& caller) {
  SyscallScope scope(kernel_, caller, Sys::kGetPPid);
  co_await scope.Enter();
  co_return caller.parent_pid;
}

SimTask<Result<void>> ProcService::Kill(Uproc& caller, Pid target, int signal) {
  SyscallScope scope(kernel_, caller, Sys::kKill);
  co_await scope.Enter();
  if (signal <= 0 || signal > kMaxSignal) {
    co_return Error{Code::kErrInval, "bad signal number"};
  }
  Uproc* victim = kernel_.FindUproc(target);
  if (victim == nullptr || victim->state != Uproc::State::kRunning) {
    co_return Error{Code::kErrSrch, "no such process"};
  }
  if (signal != kSigKill) {
    // Queued; the target observes it at its next delivery point.
    victim->signals.Raise(signal);
    co_return OkResult();
  }
  if (victim == &caller) {
    co_return Error{Code::kErrInval, "SIGKILL to self: call exit()"};
  }
  KillUproc(*victim);
  co_return OkResult();
}

SimTask<Result<void>> ProcService::Sigaction(Uproc& caller, int signal,
                                             SignalHandler handler) {
  SyscallScope scope(kernel_, caller, Sys::kSigaction);
  co_await scope.Enter();
  if (signal <= 0 || signal > kMaxSignal || signal == kSigKill) {
    co_return Error{Code::kErrInval, "signal disposition cannot be changed"};
  }
  if (handler) {
    caller.signals.SetHandler(signal, std::move(handler));
  } else {
    caller.signals.ResetHandler(signal);
  }
  co_return OkResult();
}

SimTask<Result<void>> ProcService::CheckSignals(Uproc& caller) {
  // A delivery point, not a kernel entry (SyscallClass::kNoEntry): no sealed-entry
  // invocation, no charge, no lock, no syscall count.
  co_await DeliverSignals(caller);
  co_return OkResult();
}

SimTask<void> ProcService::RaiseFault(Uproc& uproc, const Error& fault) {
  // Crash containment (§4.9): a capability or translation fault the resolvers could not claim
  // is the μprocess's bug, never the host's. Deliver SIGSEGV — a handler may run; the default
  // action terminates with status 128 + SIGSEGV, leaving every other μprocess untouched.
  ++uproc.faults_contained;
  uproc.last_fault = fault.code;
  ++kernel_.stats().faults_contained;
  uproc.signals.Raise(kSigSegv);
  co_await DeliverSignals(uproc);
}

SimTask<void> ProcService::DeliverSignals(Uproc& uproc) {
  // Runs as the target μprocess, outside any kernel lock: handlers are guest code.
  while (uproc.state == Uproc::State::kRunning && uproc.signals.AnyPending()) {
    const int signal = uproc.signals.TakePending();
    if (signal == 0) {
      break;
    }
    kernel_.machine().Charge(kernel_.costs().sched_wakeup);  // signal frame setup
    if (const SignalHandler* installed = uproc.signals.HandlerFor(signal)) {
      const SignalHandler handler = *installed;  // the handler may replace itself
      co_await handler(kernel_, uproc, signal);
      continue;
    }
    if (DefaultActionFor(signal) == SignalDefault::kIgnore) {
      continue;
    }
    co_await Exit(uproc, 128 + signal);  // default action: terminate (never returns)
  }
}

void ProcService::KillUproc(Uproc& victim) {
  Scheduler& sched = kernel_.sched();
  kernel_.machine().Charge(kernel_.costs().proc_teardown);
  ++kernel_.stats().exits;
  for (const ThreadId tid : victim.threads) {
    sched.Kill(tid);
  }
  victim.threads.clear();
  sched.Kill(victim.thread);
  victim.exit_code = -9;  // SIGKILL
  victim.state = Uproc::State::kZombie;
  FaultAroundAccountExitWaste(kernel_, victim);
  victim.fds->CloseAll();
  kernel_.ReleaseUprocMemory(victim);
  OrphanChildren(victim);
  Uproc* parent = kernel_.FindUproc(victim.parent_pid);
  if (parent != nullptr && parent->state == Uproc::State::kRunning) {
    parent->signals.Raise(kSigChld);
    parent->child_wait.WakeAll();
  } else {
    ReapZombie(victim);
  }
}

// --- exec / spawn ---------------------------------------------------------------------------

void ProcService::RegisterProgram(std::string name, UprocEntry entry) {
  programs_[std::move(name)] = std::move(entry);
}

Result<void> ProcService::ResetUprocImage(Uproc& uproc) {
  // Tear down every mapping (shared windows and file mappings included: POSIX drops mappings
  // on exec) and build a fresh zeroed image.
  kernel_.UnmapUprocImage(uproc, kernel_.costs().pte_update / 4);
  UF_RETURN_IF_ERROR(kernel_.MapFreshImage(uproc));
  uproc.mmap_cursor = uproc.base + kernel_.layout().mmap_off();
  kernel_.InstallArchCaps(uproc);
  uproc.signals.ClearPending();
  return OkResult();
}

SimTask<Result<void>> ProcService::Exec(Uproc& caller, std::string program) {
  SyscallScope scope(kernel_, caller, Sys::kExec);
  co_await scope.Enter();
  auto it = programs_.find(program);
  if (it == programs_.end()) {
    co_return Error{Code::kErrNoEnt, "no such program: " + program};
  }
  kernel_.machine().Charge(kernel_.costs().exec_base);
  auto reset = ResetUprocImage(caller);
  if (!reset.ok()) {
    // Past the point of no return: the old image is already torn down, so exec cannot
    // "return -1" into a program that no longer exists. POSIX kills the process instead.
    scope.Leave();
    co_await Exit(caller, 128 + kSigKill);
    UF_UNREACHABLE();
  }
  caller.forked_child = false;  // the fresh image runs its own runtime initialization
  caller.name = program;
  // POSIX: exec terminates every thread but the calling one.
  Scheduler& sched = kernel_.sched();
  for (const ThreadId tid : caller.threads) {
    if (sched.IsAlive(tid) && tid != sched.Current().tid()) {
      sched.Kill(tid);
    }
  }
  UprocEntry entry = it->second;
  scope.Leave();
  // The μprocess (PID, parent, descriptors, children) continues under a new thread running
  // the new image; the old thread — whose program no longer exists — retires here.
  kernel_.StartUprocThread(caller, std::move(entry));
  co_await sched.ExitThread();
}

SimTask<Result<Pid>> ProcService::Spawn(Uproc& caller, std::string program) {
  if (auto admitted = kernel_.admission().Admit(); !admitted.ok()) {  // as in Fork
    co_return admitted.error();
  }
  SyscallScope scope(kernel_, caller, Sys::kSpawn);
  co_await scope.Enter();
  auto it = programs_.find(program);
  if (it == programs_.end()) {
    co_return Error{Code::kErrNoEnt, "no such program: " + program};
  }
  kernel_.machine().Charge(kernel_.costs().exec_base);
  auto created = kernel_.CreateFreshUproc(program, caller.pid());
  if (!created.ok()) {
    co_return created.error();
  }
  Uproc& child = **created;
  child.fds = caller.fds->Clone();  // posix_spawn file-actions default: inherit descriptors
  kernel_.machine().Charge(kernel_.costs().fd_dup *
                           static_cast<uint64_t>(child.fds->OpenCount()));
  UprocEntry entry = it->second;
  kernel_.StartUprocThread(child, std::move(entry), caller.child_affinity);
  co_return child.pid();
}

SimTask<Result<void>> ProcService::Nanosleep(Uproc& caller, Cycles duration) {
  co_await DeliverSignals(caller);
  SyscallScope scope(kernel_, caller, Sys::kNanosleep);
  co_await scope.Enter();
  scope.Leave();
  co_await kernel_.sched().Sleep(duration);
  co_return OkResult();
}

// --- threads --------------------------------------------------------------------------------

SimTask<Result<ThreadId>> ProcService::ThreadCreate(Uproc& caller, UprocEntry entry) {
  SyscallScope scope(kernel_, caller, Sys::kThreadCreate);
  co_await scope.Enter();
  Scheduler& sched = kernel_.sched();
  kernel_.machine().Charge(kernel_.costs().sched_wakeup);
  // Secondary threads share everything; when their entry returns, only the thread ends.
  auto wrapper = [](Kernel& kernel, Uproc& proc, UprocEntry fn) -> SimTask<void> {
    co_await fn(kernel, proc);
    if (proc.thread_exit_wait != nullptr) {
      proc.thread_exit_wait->WakeAll();
    }
  };
  const ThreadId tid = sched.Spawn(wrapper(kernel_, caller, std::move(entry)),
                                   caller.name + ":thr", caller.child_affinity);
  sched.SetThreadContext(tid, &caller);
  caller.threads.push_back(tid);
  co_return tid;
}

SimTask<Result<void>> ProcService::ThreadJoin(Uproc& caller, ThreadId tid) {
  SyscallScope scope(kernel_, caller, Sys::kThreadJoin);
  co_await scope.Enter();
  const bool known =
      std::find(caller.threads.begin(), caller.threads.end(), tid) != caller.threads.end();
  scope.Leave();
  if (!known) {
    co_return Error{Code::kErrSrch, "join of a thread not in this μprocess"};
  }
  Scheduler& sched = kernel_.sched();
  if (sched.InThread() && sched.Current().tid() == tid) {
    co_return Error{Code::kErrInval, "a thread cannot join itself"};
  }
  while (sched.IsAlive(tid)) {
    co_await caller.thread_exit_wait->Wait();
  }
  auto& threads = caller.threads;
  threads.erase(std::remove(threads.begin(), threads.end(), tid), threads.end());
  co_return OkResult();
}

// --- anonymous mmap -------------------------------------------------------------------------

SimTask<Result<Capability>> ProcService::MmapAnon(Uproc& caller, uint64_t length) {
  SyscallScope scope(kernel_, caller, Sys::kMmapAnon);
  co_await scope.Enter();
  Machine& machine = kernel_.machine();
  const UprocLayout& layout = kernel_.layout();
  // POSIX mmap rejects a zero or non-page-multiple length outright (EINVAL) — exhaustion of
  // the zone is the only ENOMEM condition.
  if (length == 0 || length % kPageSize != 0) {
    co_return Error{Code::kErrInval, "mmap length must be a non-zero page multiple"};
  }
  const uint64_t zone_end = caller.base + layout.mmap_off() + layout.mmap_size();
  if (caller.mmap_cursor + length > zone_end) {
    co_return Error{Code::kErrNoMem, "mmap zone exhausted"};
  }
  const uint64_t addr = caller.mmap_cursor;
  if (kernel_.config().demand_paging) {
    // Reserve-only: frames arrive on first touch via the demand-fill resolver. A reservation
    // cannot fail on physical exhaustion — ENOMEM moves to fault time (SIGSEGV containment
    // if unresolvable there).
    for (uint64_t off = 0; off < length; off += kPageSize) {
      machine.Charge(kernel_.costs().pte_dup);
      caller.page_table->Map(addr + off, kInvalidFrame, kPteNotPresent | kPteZeroFill);
    }
  } else {
    for (uint64_t off = 0; off < length; off += kPageSize) {
      auto frame = machine.frames().Allocate();
      if (!frame.ok()) {
        // All-or-nothing: unmap and release the pages this call already mapped, or the next
        // mmap over the same cursor would double-map them.
        for (uint64_t undo = 0; undo < off; undo += kPageSize) {
          machine.frames().Release(caller.page_table->Unmap(addr + undo));
        }
        co_return frame.error();
      }
      machine.Charge(kernel_.costs().frame_alloc + kernel_.costs().pte_update);
      caller.page_table->Map(addr + off, *frame, kPteRw);
    }
  }
  caller.mmap_cursor += length;
  // The returned capability is derived from the μprocess's own authority — it cannot exceed
  // the region (security invariant, §4.2).
  co_return caller.regs.ddc.WithBounds(addr, length);
}

// --- sbrk -----------------------------------------------------------------------------------

SimTask<Result<uint64_t>> ProcService::Sbrk(Uproc& caller, int64_t delta) {
  SyscallScope scope(kernel_, caller, Sys::kSbrk);
  co_await scope.Enter();
  Machine& machine = kernel_.machine();
  const UprocLayout& layout = kernel_.layout();
  const uint64_t heap_lo = caller.base + layout.heap_off();
  const uint64_t heap_top = heap_lo + layout.heap_size();
  const uint64_t old_break = caller.heap_break;
  if (delta == 0) {
    co_return old_break;
  }
  if (delta < 0) {
    const uint64_t shrink = static_cast<uint64_t>(-delta);
    // The floor preserves the first heap page: it holds the guest allocator's root record
    // (tinyalloc.h) and every μprocess relies on it existing.
    if (shrink > old_break || old_break - shrink < heap_lo + kPageSize) {
      co_return Error{Code::kErrInval, "sbrk shrink below the heap floor"};
    }
    const uint64_t new_break = old_break - shrink;
    // Whole pages above the new break are returned: frames released, reservations dropped.
    for (uint64_t va = AlignUp(new_break, kPageSize); va < AlignUp(old_break, kPageSize);
         va += kPageSize) {
      machine.Charge(kernel_.costs().pte_update);
      const FrameId frame = caller.page_table->Unmap(va);
      if (frame != kInvalidFrame) {
        machine.frames().Release(frame);
      }
    }
    caller.heap_break = new_break;
    co_return old_break;
  }
  const uint64_t new_break = old_break + static_cast<uint64_t>(delta);
  if (new_break < old_break || new_break > heap_top) {
    // The heap is statically sized at build time (§4.2): the break can never move past it.
    co_return Error{Code::kErrNoMem, "sbrk beyond the static heap"};
  }
  const uint64_t map_lo = AlignUp(old_break, kPageSize);
  const uint64_t map_hi = AlignUp(new_break, kPageSize);
  if (kernel_.config().demand_paging) {
    // Lazy zero-fill growth: reservations only; frames arrive on first touch.
    for (uint64_t va = map_lo; va < map_hi; va += kPageSize) {
      machine.Charge(kernel_.costs().pte_dup);
      caller.page_table->Map(va, kInvalidFrame, kPteNotPresent | kPteZeroFill);
    }
  } else {
    for (uint64_t va = map_lo; va < map_hi; va += kPageSize) {
      auto frame = machine.frames().Allocate();
      if (!frame.ok()) {
        // All-or-nothing: a failed growth leaves the break (and every page) where it was.
        for (uint64_t undo = map_lo; undo < va; undo += kPageSize) {
          machine.frames().Release(caller.page_table->Unmap(undo));
        }
        co_return frame.error();
      }
      machine.Charge(kernel_.costs().frame_alloc + kernel_.costs().pte_update);
      caller.page_table->Map(va, *frame, kPteRw);
    }
  }
  caller.heap_break = new_break;
  co_return old_break;
}

}  // namespace ufork
