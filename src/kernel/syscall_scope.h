// SyscallScope: the one implementation of the kernel entry/exit protocol.
//
// Construct it at the top of a syscall, `co_await scope.Enter()`, and return: the destructor
// charges the exit cost and releases the kernel lock on every path, so early error returns can
// no longer leak (or double-release) the lock. The protocol, in order, matches the historical
// EnterSyscall/LeaveSyscall pair exactly — the golden-cycle pins depend on that:
//
//   Enter:  count the syscall (total + per-id) → charge the backend's entry cost → invoke the
//           sealed entry capability → charge argument-validation → acquire the kernel lock
//           (KernelCore::kernel_lock; MAS kernels have none).
//   Leave:  charge half the entry cost (context restore) → release the lock.
//
// Blocking syscalls (SyscallClass::kBlocking) call Leave() explicitly before suspending — the
// kernel never blocks holding the kernel lock — and Reacquire() after a wakeup when they must
// re-enter their kernel section (no entry charges: the caller never left the kernel).
//
// Invariants enforced (the lock-asymmetry assertions):
//   * Enter at most once per scope; explicit Leave only on kBlocking syscalls.
//   * Leave without a matching Enter/Reacquire CHECK-fails (double-release).
//   * A scope destroyed while holding releases exactly once; VirtualLock::Release's owner
//     check catches frames torn down from a foreign thread (lock leak).
#ifndef UFORK_SRC_KERNEL_SYSCALL_SCOPE_H_
#define UFORK_SRC_KERNEL_SYSCALL_SCOPE_H_

#include "src/kernel/kernel_core.h"
#include "src/kernel/syscall_table.h"
#include "src/kernel/uproc.h"
#include "src/sched/sync.h"
#include "src/sched/task.h"

namespace ufork {

class SyscallScope {
 public:
  SyscallScope(KernelCore& core, Uproc& caller, Sys id)
      : core_(core), caller_(caller), desc_(SyscallDescOf(id)) {}
  ~SyscallScope();

  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;

  // Runs the entry protocol. Cannot fail: the sealed entry capability is kernel-held (installed
  // by InstallArchCaps, copied by StartForkChild) and no guest operation writes it, so a failed
  // unseal is a host invariant violation and aborts (DESIGN.md §4.9's host plane).
  SimTask<void> Enter();

  // Explicitly leaves the kernel section before a suspension point. Only legal on syscalls the
  // table declares kBlocking.
  void Leave();

  // Re-enters the kernel section after a wakeup (e.g. the wait() retry loop). Lock only — the
  // caller never left the syscall, so no entry cost and no recount.
  SimTask<void> Reacquire();

 private:
  void ChargeExitAndRelease();

  KernelCore& core_;
  Uproc& caller_;
  const SyscallDesc& desc_;
  bool entered_ = false;  // Enter() completed
  bool open_ = false;     // currently inside the kernel section (holding the kernel lock)
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_SYSCALL_SCOPE_H_
