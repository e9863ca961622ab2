// The single-address-space kernel.
//
// A unikernel-style kernel in the spirit of the paper's Unikraft base, extended with the
// per-μprocess state fork requires (§4.5): a process table, per-process descriptor tables,
// PIDs, wait/exit, scheduling, signals, pipes, message queues and a ramdisk VFS. System calls
// are plain (coroutine) function calls — same privilege level as the application — guarded by
// the sealed-entry capability check; argument validation and TOCTTOU protections are applied
// per the configured isolation policy (§4.4).
//
// The kernel is layered (see DESIGN.md "Kernel layering and the kernel lock"):
//
//   KernelCore (kernel_core.h)  machine, scheduler, address space, process table, kernel
//                               lock, μprocess construction. Fork backends see only this.
//   ProcService / FileService / IpcService
//                               the syscalls, one service per subsystem, each owning its
//                               subsystem state (programs, VFS, pipes/mqueues/shm/futexes).
//   Kernel (this file)          composes the services; the Guest facade (the user ABI) and
//                               applications call them directly through procs(), files()
//                               and ipc().
//
// Every syscall runs under a SyscallScope driven by the declarative syscall table
// (syscall_table.h): shared entry/exit protocol, per-syscall stats, RAII lock discipline.
#ifndef UFORK_SRC_KERNEL_KERNEL_H_
#define UFORK_SRC_KERNEL_KERNEL_H_

#include <memory>
#include <string>
#include <utility>

#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/kernel/fd.h"
#include "src/kernel/file_service.h"
#include "src/kernel/fork_backend.h"
#include "src/kernel/ipc_service.h"
#include "src/kernel/isolation.h"
#include "src/kernel/kernel_core.h"
#include "src/kernel/mqueue.h"
#include "src/kernel/page_cache.h"
#include "src/kernel/pipe.h"
#include "src/kernel/proc_service.h"
#include "src/kernel/uproc.h"
#include "src/kernel/vfs.h"
#include "src/machine/machine.h"
#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/sched/scheduler.h"
#include "src/sched/sync.h"

namespace ufork {

class Kernel : public KernelCore {
 public:
  Kernel(const KernelConfig& config, std::unique_ptr<ForkBackend> backend)
      : KernelCore(config, std::move(backend)), procs_(*this), files_(*this), ipc_(*this) {
    // KernelCore wired the memory-layer injection sites; the service-owned sites (ramdisk
    // growth) and the shm contribution to the frame-accounting invariant are wired here,
    // where the services exist.
    files_.vfs().set_fault_injector(&fault_injector_);
    // VFS writes, truncation, unlink and rename-over must drop stale page-cache pages —
    // the cache is keyed by inode identity and fills read-through from the inode's bytes.
    files_.vfs().set_invalidate_hook([this](const void* key) { page_cache().EvictInode(key); });
    set_kernel_frame_refs_provider(
        [this](const std::function<void(FrameId)>& fn) { ipc_.ForEachShmFrame(fn); });
  }

  ProcService& procs() { return procs_; }
  FileService& files() { return files_; }
  IpcService& ipc() { return ipc_; }

 private:
  ProcService procs_;
  FileService files_;
  IpcService ipc_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_KERNEL_H_
