// The single-address-space kernel.
//
// A unikernel-style kernel in the spirit of the paper's Unikraft base, extended with the
// per-μprocess state fork requires (§4.5): a process table, per-process descriptor tables,
// PIDs, wait/exit, scheduling, signals, pipes, message queues and a ramdisk VFS. System calls
// are plain (coroutine) function calls — same privilege level as the application — guarded by
// the sealed-entry capability check; argument validation and TOCTTOU protections are applied
// per the configured isolation policy (§4.4).
//
// The kernel is layered (see DESIGN.md "Kernel layering and lock domains"):
//
//   KernelCore (kernel_core.h)  machine, scheduler, address space, process table, lock
//                               domains, μprocess construction. Fork backends see only this.
//   ProcService / FileService / IpcService
//                               the syscalls, one service per lock domain, each owning its
//                               subsystem state (programs, VFS, pipes/mqueues/shm/futexes).
//   Kernel (this file)          composes the services and re-exports the Sys* surface the
//                               Guest facade and applications call.
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

  // --- services -------------------------------------------------------------------------------

  ProcService& procs() { return procs_; }
  FileService& files() { return files_; }
  IpcService& ipc() { return ipc_; }

  RamFs& vfs() { return files_.vfs(); }
  MqRegistry& mqueues() { return ipc_.mqueues(); }

  // Registers a named program image for exec/spawn.
  void RegisterProgram(std::string name, UprocEntry entry) {
    procs_.RegisterProgram(std::move(name), std::move(entry));
  }

  // --- system calls (invoked via the Guest facade) --------------------------------------------
  //
  // Thin delegators into the owning service; every call runs the SyscallScope protocol
  // (sealed-entry check, entry cost, argument-validation charge, domain lock).

  SimTask<Result<Pid>> SysFork(Uproc& caller, UprocEntry child_entry) {
    return procs_.Fork(caller, std::move(child_entry));
  }
  SimTask<Result<WaitResult>> SysWait(Uproc& caller) { return procs_.Wait(caller); }
  // Never returns: tears the μprocess down and exits the thread.
  SimTask<void> SysExit(Uproc& caller, int code) { return procs_.Exit(caller, code); }

  SimTask<Result<Pid>> SysGetPid(Uproc& caller) { return procs_.GetPid(caller); }
  SimTask<Result<Pid>> SysGetPPid(Uproc& caller) { return procs_.GetPPid(caller); }

  SimTask<Result<int>> SysOpen(Uproc& caller, std::string path, uint32_t flags) {
    return files_.Open(caller, std::move(path), flags);
  }
  SimTask<Result<void>> SysClose(Uproc& caller, int fd) { return files_.Close(caller, fd); }
  SimTask<Result<int64_t>> SysRead(Uproc& caller, int fd, Capability buf, uint64_t va,
                                   uint64_t len) {
    return files_.Read(caller, fd, buf, va, len);
  }
  SimTask<Result<int64_t>> SysWrite(Uproc& caller, int fd, Capability buf, uint64_t va,
                                    uint64_t len) {
    return files_.Write(caller, fd, buf, va, len);
  }
  SimTask<Result<int64_t>> SysSeek(Uproc& caller, int fd, int64_t offset, int whence) {
    return files_.Seek(caller, fd, offset, whence);
  }
  SimTask<Result<int>> SysDup2(Uproc& caller, int oldfd, int newfd) {
    return files_.Dup2(caller, oldfd, newfd);
  }
  SimTask<Result<std::pair<int, int>>> SysPipe(Uproc& caller) { return ipc_.Pipe(caller); }
  SimTask<Result<void>> SysUnlink(Uproc& caller, std::string path) {
    return files_.Unlink(caller, std::move(path));
  }
  SimTask<Result<void>> SysRename(Uproc& caller, std::string from, std::string to) {
    return files_.Rename(caller, std::move(from), std::move(to));
  }
  SimTask<Result<uint64_t>> SysFileSize(Uproc& caller, std::string path) {
    return files_.FileSize(caller, std::move(path));
  }

  SimTask<Result<int>> SysMqOpen(Uproc& caller, std::string name, bool create) {
    return ipc_.MqOpen(caller, std::move(name), create);
  }

  // Anonymous mmap: returns a capability over fresh pages inside the caller's region (§4.2:
  // "the kernel ensures anonymous mmap requests are served by returning capabilities pointing
  // to the calling μprocess virtual memory area").
  SimTask<Result<Capability>> SysMmapAnon(Uproc& caller, uint64_t length) {
    return procs_.MmapAnon(caller, length);
  }

  // sbrk(2): moves the heap break inside the build-time static heap (§4.2) and returns the
  // previous break. Growth past the heap top is ENOMEM; under demand paging regrown pages
  // are zero-fill reservations populated on first touch.
  SimTask<Result<uint64_t>> SysSbrk(Uproc& caller, int64_t delta) {
    return procs_.Sbrk(caller, delta);
  }

  // mmap(MAP_PRIVATE) of a ramdisk file through the unified page cache: clean pages are one
  // frame shared by every mapper; the first write takes a CoW break to a private copy.
  SimTask<Result<Capability>> SysMmapFile(Uproc& caller, std::string path, uint64_t length) {
    return files_.MmapFile(caller, std::move(path), length);
  }

  // kill(2): SIGKILL terminates the target immediately; other signals are queued on its
  // pending set and delivered at the target's next delivery point.
  SimTask<Result<void>> SysKill(Uproc& caller, Pid target, int signal = kSigKill) {
    return procs_.Kill(caller, target, signal);
  }
  // sigaction(2): installs a handler coroutine for `signal` (not SIGKILL).
  SimTask<Result<void>> SysSigaction(Uproc& caller, int signal, SignalHandler handler) {
    return procs_.Sigaction(caller, signal, std::move(handler));
  }
  // Explicit delivery point: runs pending handlers / default actions now.
  SimTask<Result<void>> SysCheckSignals(Uproc& caller) { return procs_.CheckSignals(caller); }

  // --- POSIX shared memory (paper §3.7: "supporting shared memory between μprocesses would
  // be straightforward... map the same set of physical pages within the virtual address space
  // areas of relevant μprocesses") ---------------------------------------------------------

  // shm_open + ftruncate: creates (or opens) a named object of `size` bytes.
  SimTask<Result<int>> SysShmOpen(Uproc& caller, std::string name, uint64_t size) {
    return ipc_.ShmOpen(caller, std::move(name), size);
  }
  // mmap(MAP_SHARED): maps the object's frames into the caller's mmap zone. The returned
  // capability carries data permissions but NOT StoreCap/LoadCap: capabilities cannot be
  // laundered between μprocesses through shared memory (security invariant §4.2/§4.3).
  SimTask<Result<Capability>> SysShmMap(Uproc& caller, int shm_id) {
    return ipc_.ShmMap(caller, shm_id);
  }
  SimTask<Result<void>> SysShmUnlink(Uproc& caller, std::string name) {
    return ipc_.ShmUnlink(caller, std::move(name));
  }

  // --- program execution (U1: fork + exec; and the cheaper posix_spawn of §2.3) -------------

  // execve(2): replaces the calling μprocess's image with a fresh instance of `program`.
  // PID, parent, descriptors and pending children are preserved; memory is reset. Never
  // returns on success.
  SimTask<Result<void>> SysExec(Uproc& caller, std::string program) {
    return procs_.Exec(caller, std::move(program));
  }
  // posix_spawn(3): creates a child running a fresh image of `program` without duplicating the
  // parent's memory — the cheap fork+exec replacement SASOSes traditionally support (§2.3).
  SimTask<Result<Pid>> SysSpawn(Uproc& caller, std::string program) {
    return procs_.Spawn(caller, std::move(program));
  }
  SimTask<Result<void>> SysNanosleep(Uproc& caller, Cycles duration) {
    return procs_.Nanosleep(caller, duration);
  }

  // --- threads (§3.4: μprocesses may have many threads; fork copies only the caller's) ------

  // pthread_create: a new thread in the SAME μprocess (same region, same descriptors).
  SimTask<Result<ThreadId>> SysThreadCreate(Uproc& caller, UprocEntry entry) {
    return procs_.ThreadCreate(caller, std::move(entry));
  }
  // pthread_join: blocks until the thread ends. Any thread of the μprocess may join any other.
  SimTask<Result<void>> SysThreadJoin(Uproc& caller, ThreadId tid) {
    return procs_.ThreadJoin(caller, tid);
  }

  // --- futex (supports intra-process thread sync and, because the key is the *physical*
  // location, cross-μprocess sync through MAP_SHARED windows) --------------------------------

  // Blocks while *(uint64_t*)va == expected (returns EAGAIN immediately otherwise).
  SimTask<Result<void>> SysFutexWait(Uproc& caller, Capability cap, uint64_t va,
                                     uint64_t expected) {
    return ipc_.FutexWait(caller, cap, va, expected);
  }
  // Wakes up to n waiters on the location. Returns the number woken.
  SimTask<Result<uint64_t>> SysFutexWake(Uproc& caller, Capability cap, uint64_t va,
                                         uint64_t n) {
    return ipc_.FutexWake(caller, cap, va, n);
  }

  // Models an MSR/MRS-class privileged instruction: permitted only with kPermSystem on the
  // executing PCC (§4.4 second principle). User μprocesses lack it.
  SimTask<Result<void>> SysPrivilegedOp(Uproc& caller);

 private:
  ProcService procs_;
  FileService files_;
  IpcService ipc_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_KERNEL_H_
