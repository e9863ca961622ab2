#include "src/kernel/syscall_scope.h"

#include "src/base/check.h"

namespace ufork {

SyscallScope::~SyscallScope() {
  // RAII release: the common exit path for kFast syscalls and for error returns on kBlocking
  // ones. Runs at the end of the caller's await expression — after the co_returned value is
  // materialized, with no charges or suspensions in between — so the exit charge lands at the
  // same virtual time the historical inline LeaveSyscall produced.
  if (open_) {
    ChargeExitAndRelease();
  }
}

SimTask<void> SyscallScope::Enter() {
  UF_CHECK_MSG(!entered_ && !open_, "SyscallScope::Enter called twice");
  UF_CHECK_MSG(desc_.klass != SyscallClass::kNoEntry,
               "delivery points must not enter the kernel");
  // Incremental-compaction barrier (DESIGN.md §4.13): a syscall entered from the region that
  // is mid-move parks until the move commits or cancels, then proceeds against the (possibly
  // rebased) μprocess state. One load+compare when no move is in flight.
  CompactionService& compaction = core_.compaction();
  if (compaction.NeedsBarrier(caller_.base)) [[unlikely]] {
    co_await compaction.BarrierOn(caller_);
  }
  KernelStats& stats = core_.stats();
  ++stats.syscalls;
  ++stats.Count(desc_.id);
  core_.machine().Charge(core_.costs().SyscallEntry(core_.backend().syscall_kind()));
  // Entering the kernel means invoking the sealed entry capability: the hardware unseals it
  // and branches to the fixed kernel entry point (§4.4). The sentry is kernel-held, so an
  // unseal failure is the simulator's bug, not the guest's.
  UF_CHECK_MSG(caller_.syscall_sentry.InvokedSentry().ok(),
               "syscall sentry does not unseal: the kernel-held entry capability is corrupt");
  if (core_.policy().validate_args) {
    core_.machine().Charge(core_.costs().validation_check);
  }
  if (VirtualLock* lock = core_.kernel_lock()) {
    co_await lock->Acquire();
  }
  // Frame grants made inside this kernel section bill to the caller's tenant (§4.10). Pure
  // host-side bookkeeping: no charge, no virtual-time effect.
  core_.machine().frames().set_current_tenant(caller_.tenant);
  entered_ = true;
  open_ = true;
}

void SyscallScope::Leave() {
  UF_CHECK_MSG(entered_, "SyscallScope::Leave before Enter");
  UF_CHECK_MSG(open_, "double release: Leave on a scope that already left");
  UF_CHECK_MSG(desc_.klass == SyscallClass::kBlocking,
               "explicit Leave is reserved for blocking syscalls; fast paths rely on RAII");
  ChargeExitAndRelease();
}

SimTask<void> SyscallScope::Reacquire() {
  UF_CHECK_MSG(entered_ && !open_, "Reacquire without a preceding Leave");
  // A blocked caller woken while its region is mid-move (e.g. an mq write landing on a parked
  // reader) must not touch kernel or guest state split across two bases: park here until the
  // move resolves, exactly as a fresh entry would.
  CompactionService& compaction = core_.compaction();
  if (compaction.NeedsBarrier(caller_.base)) [[unlikely]] {
    co_await compaction.BarrierOn(caller_);
  }
  if (VirtualLock* lock = core_.kernel_lock()) {
    co_await lock->Acquire();
  }
  open_ = true;
}

void SyscallScope::ChargeExitAndRelease() {
  // Syscall return path: restoring the caller's context costs about half the entry. For a
  // blocked caller this lands after the wakeup, so it is never absorbed into wait time.
  core_.machine().Charge(core_.costs().SyscallEntry(core_.backend().syscall_kind()) / 2);
  if (VirtualLock* lock = core_.kernel_lock()) {
    lock->Release();  // owner-checked: catches a scope leaked to a foreign thread
  }
  open_ = false;
  if (core_.config().check_frame_invariants) [[unlikely]] {
    // Every kernel exit is a consistency point: frame-mutating syscalls never suspend mid
    // mutation (blocking ones Leave() first), so refcounts and mappings must agree here.
    core_.CheckFrameAccountingOrDie();
  }
}

}  // namespace ufork
