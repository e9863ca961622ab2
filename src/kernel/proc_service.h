// ProcService: process-lifecycle syscalls and state.
//
// Owns the process lifecycle — fork/wait/exit, pids, signals, exec/spawn and the
// registered program images, plus threads and the anonymous-mmap grower (it mutates the
// caller's region, a per-process resource). Fork itself is delegated to the kernel's
// ForkBackend; this service wraps it in the syscall protocol and the fork accounting.
#ifndef UFORK_SRC_KERNEL_PROC_SERVICE_H_
#define UFORK_SRC_KERNEL_PROC_SERVICE_H_

#include <map>
#include <string>
#include <utility>

#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/kernel/fork_backend.h"
#include "src/kernel/kernel_core.h"
#include "src/kernel/signal.h"
#include "src/kernel/uproc.h"
#include "src/sched/task.h"

namespace ufork {

class Kernel;

class ProcService {
 public:
  explicit ProcService(Kernel& kernel) : kernel_(kernel) {}

  ProcService(const ProcService&) = delete;
  ProcService& operator=(const ProcService&) = delete;

  SimTask<Result<Pid>> Fork(Uproc& caller, UprocEntry child_entry);
  SimTask<Result<WaitResult>> Wait(Uproc& caller);
  // Never returns: tears the μprocess down and exits the thread.
  SimTask<void> Exit(Uproc& caller, int code);

  SimTask<Result<Pid>> GetPid(Uproc& caller);
  SimTask<Result<Pid>> GetPPid(Uproc& caller);

  // kill(2): SIGKILL terminates the target at once; other signals queue on its pending set
  // until its next delivery point.
  SimTask<Result<void>> Kill(Uproc& caller, Pid target, int signal);
  // sigaction(2): installs a handler coroutine for `signal` (not SIGKILL).
  SimTask<Result<void>> Sigaction(Uproc& caller, int signal, SignalHandler handler);
  // Explicit delivery point: runs pending handlers / default actions now.
  SimTask<Result<void>> CheckSignals(Uproc& caller);

  // Registers a named program image for Exec and Spawn.
  void RegisterProgram(std::string name, UprocEntry entry);
  // execve(2): replaces the caller's image with a fresh instance of `program`, keeping its
  // PID, parent, descriptors and children. Never returns on success.
  SimTask<Result<void>> Exec(Uproc& caller, std::string program);
  // posix_spawn(3): a child running a fresh image of `program`, without duplicating the
  // parent's memory — the fork+exec replacement SASOSes traditionally support (§2.3).
  SimTask<Result<Pid>> Spawn(Uproc& caller, std::string program);
  SimTask<Result<void>> Nanosleep(Uproc& caller, Cycles duration);

  // pthread_create / pthread_join: threads share the caller's region and descriptors (§3.4);
  // any thread of the μprocess may join any other.
  SimTask<Result<ThreadId>> ThreadCreate(Uproc& caller, UprocEntry entry);
  SimTask<Result<void>> ThreadJoin(Uproc& caller, ThreadId tid);

  // Anonymous mmap: fresh pages inside the caller's own region (§4.2).
  SimTask<Result<Capability>> MmapAnon(Uproc& caller, uint64_t length);

  // sbrk(2) against the build-time static heap (§4.2): grow maps pages up to the heap top
  // (lazily under demand paging), shrink returns whole pages; returns the previous break.
  SimTask<Result<uint64_t>> Sbrk(Uproc& caller, int64_t delta);

  // Runs pending handlers / default actions for `uproc`. If a fatal default fires, tears the
  // μprocess down and never returns (exits the thread). Called by every delivery point,
  // including FileService::Read and Nanosleep.
  SimTask<void> DeliverSignals(Uproc& uproc);

  // Crash containment: converts an unresolvable guest-triggered fault (capability or
  // translation) into SIGSEGV delivery to `uproc`. With no handler installed the default
  // action terminates the μprocess with status 128 + SIGSEGV; the kernel and every other
  // μprocess keep running. Does not return if the default action fires on the calling thread.
  SimTask<void> RaiseFault(Uproc& uproc, const Error& fault);

 private:
  // Exit and SIGKILL: reaps `dying`'s zombie children and reparents its running ones to init
  // (or orphans them when init is gone or is `dying`). Charges nothing.
  void OrphanChildren(Uproc& dying);
  void ReapZombie(Uproc& zombie);
  void KillUproc(Uproc& victim);
  Result<void> ResetUprocImage(Uproc& uproc);

  Kernel& kernel_;
  std::map<std::string, UprocEntry> programs_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_PROC_SERVICE_H_
