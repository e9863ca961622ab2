// Guest facade: the "userspace view" of a μprocess.
//
// Guest programs are coroutines receiving a Guest&. The contract that makes the simulation
// faithful to the paper: ALL program state lives in simulated guest memory, reached only
// through capabilities — so fork really has to copy pages, relocate tagged pointers, and CoPA
// faults really fire. Host-side locals are restricted to transient scalars (loop counters,
// staging buffers for I/O), the analogue of machine registers and kernel buffers.
//
// fork(): POSIX fork returns twice in one program; a simulator cannot duplicate a host call
// stack, so Guest::Fork(child_fn) starts the child at an explicit entry over the duplicated,
// relocated guest image (see DESIGN.md substitutions). Everything the paper measures — memory
// duplication, relocation, isolation, CoW/CoA/CoPA behaviour — is preserved.
#ifndef UFORK_SRC_GUEST_GUEST_H_
#define UFORK_SRC_GUEST_GUEST_H_

#include <functional>
#include <string>
#include <vector>

#include "src/kernel/kernel.h"

namespace ufork {

class Guest;
using GuestFn = std::function<SimTask<void>(Guest&)>;

// Adapts a guest coroutine into a kernel UprocEntry: constructs the Guest facade and runs the
// C-runtime initialization (allocator, GOT) for fresh programs (fork children inherit a copied,
// relocated runtime instead — that is the whole point).
UprocEntry MakeGuestEntry(GuestFn fn);

// Well-known GOT slots installed by the guest runtime.
inline constexpr int kGotSlotHeapRoot = 0;
inline constexpr int kGotSlotDataSeg = 1;
inline constexpr int kGotSlotFirstUser = 2;

class Guest {
 public:
  Guest(Kernel& kernel, Uproc& uproc) : kernel_(kernel), uproc_(uproc) {}

  Kernel& kernel() { return kernel_; }
  Uproc& uproc() { return uproc_; }
  Pid pid() const { return uproc_.pid(); }
  uint64_t base() const { return uproc_.base; }
  const UprocLayout& layout() const { return kernel_.layout(); }
  const Capability& ddc() const { return uproc_.regs.ddc; }

  // C-runtime initialization for a fresh program image: heap allocator root + GOT entries.
  Result<void> InitRuntime();

  // --- memory access (charged, checked, CoW/CoPA-resolving) ------------------------------------

  Result<void> ReadBytes(const Capability& auth, uint64_t va, std::span<std::byte> out) {
    return kernel_.machine().Load(*uproc_.page_table, auth, va, out);
  }
  Result<void> WriteBytes(const Capability& auth, uint64_t va,
                          std::span<const std::byte> in) {
    return kernel_.machine().Store(*uproc_.page_table, auth, va, in);
  }
  template <typename T>
  Result<T> Load(const Capability& auth, uint64_t va) {
    return kernel_.machine().LoadScalar<T>(*uproc_.page_table, auth, va);
  }
  template <typename T>
  Result<void> Store(const Capability& auth, uint64_t va, T value) {
    return kernel_.machine().StoreScalar<T>(*uproc_.page_table, auth, va, value);
  }
  Result<Capability> LoadCap(const Capability& auth, uint64_t va) {
    return kernel_.machine().LoadCap(*uproc_.page_table, auth, va);
  }
  Result<void> StoreCap(const Capability& auth, uint64_t va, const Capability& value) {
    return kernel_.machine().StoreCap(*uproc_.page_table, auth, va, value);
  }
  Result<void> CopyBytes(const Capability& dst_auth, uint64_t dst, const Capability& src_auth,
                         uint64_t src, uint64_t size) {
    return kernel_.machine().Copy(*uproc_.page_table, dst_auth, dst, src_auth, src, size);
  }

  // Convenience: access through the cursor of a capability.
  template <typename T>
  Result<T> LoadAt(const Capability& cap, uint64_t offset = 0) {
    return Load<T>(cap, cap.address() + offset);
  }
  template <typename T>
  Result<void> StoreAt(const Capability& cap, uint64_t offset, T value) {
    return Store<T>(cap, cap.address() + offset, value);
  }

  // Algorithmic work: charges virtual CPU time (the analogue of running instructions).
  void Compute(Cycles cycles) { kernel_.sched().Charge(cycles); }

  // Affinity for future fork children (sched_setaffinity-then-fork). -1 = any core.
  void SetChildAffinity(int core) { uproc_.child_affinity = core; }

  // Frame-billing tenant for this μprocess and its future children (DESIGN.md §4.10).
  // Host-side bookkeeping only: no charge, no virtual-time effect.
  void SetTenant(TenantId tenant) { uproc_.tenant = tenant; }
  TenantId tenant() const { return uproc_.tenant; }

  // --- GOT (position-independent global access, §3.7) ------------------------------------------

  Result<void> GotStore(int slot, const Capability& value);
  Result<Capability> GotLoad(int slot);

  // --- heap -------------------------------------------------------------------------------------

  // Returns a capability tightly bounded to the allocation (16-byte aligned; large objects are
  // padded/aligned for representable bounds, see compressed_cap.h).
  Result<Capability> Malloc(uint64_t size);
  Result<void> Free(const Capability& allocation);

  // --- system calls -----------------------------------------------------------------------------

  // fork(2). TOOLCHAIN NOTE: if the child closure has non-trivially-destructible captures
  // (strings, vectors, std::function members), hoist it into a named GuestFn and pass
  // std::move(fn) — GCC 12 mis-destroys such temporaries when they span the co_await
  // suspension (regression-tested in tests/coroutine_lifetime_test.cc). Closures with only
  // trivially-destructible captures may be written inline.
  SimTask<Result<Pid>> Fork(GuestFn child_fn);
  SimTask<Result<WaitResult>> Wait() { return kernel_.procs().Wait(uproc_); }
  SimTask<void> Exit(int code) { return kernel_.procs().Exit(uproc_, code); }
  SimTask<Result<Pid>> GetPid() { return kernel_.procs().GetPid(uproc_); }
  SimTask<Result<Pid>> GetPPid() { return kernel_.procs().GetPPid(uproc_); }
  SimTask<Result<int>> Open(std::string path, uint32_t flags) {
    return kernel_.files().Open(uproc_, std::move(path), flags);
  }
  SimTask<Result<void>> Close(int fd) { return kernel_.files().Close(uproc_, fd); }
  SimTask<Result<int64_t>> Read(int fd, const Capability& buf, uint64_t len) {
    return kernel_.files().Read(uproc_, fd, buf, buf.address(), len);
  }
  SimTask<Result<int64_t>> Write(int fd, const Capability& buf, uint64_t len) {
    return kernel_.files().Write(uproc_, fd, buf, buf.address(), len);
  }
  SimTask<Result<int64_t>> Seek(int fd, int64_t offset, int whence) {
    return kernel_.files().Seek(uproc_, fd, offset, whence);
  }
  SimTask<Result<std::pair<int, int>>> Pipe() { return kernel_.ipc().Pipe(uproc_); }
  SimTask<Result<int>> Dup2(int oldfd, int newfd) {
    return kernel_.files().Dup2(uproc_, oldfd, newfd);
  }
  SimTask<Result<void>> Unlink(std::string path) {
    return kernel_.files().Unlink(uproc_, std::move(path));
  }
  SimTask<Result<void>> Rename(std::string from, std::string to) {
    return kernel_.files().Rename(uproc_, std::move(from), std::move(to));
  }
  SimTask<Result<uint64_t>> FileSize(std::string path) {
    return kernel_.files().FileSize(uproc_, std::move(path));
  }
  SimTask<Result<int>> MqOpen(std::string name, bool create) {
    return kernel_.ipc().MqOpen(uproc_, std::move(name), create);
  }
  SimTask<Result<Capability>> MmapAnon(uint64_t length) {
    return kernel_.procs().MmapAnon(uproc_, length);
  }
  SimTask<Result<uint64_t>> Sbrk(int64_t delta) { return kernel_.procs().Sbrk(uproc_, delta); }
  SimTask<Result<Capability>> MmapFile(std::string path, uint64_t length) {
    return kernel_.files().MmapFile(uproc_, std::move(path), length);
  }
  SimTask<Result<void>> Kill(Pid target, int signal = kSigKill) {
    return kernel_.procs().Kill(uproc_, target, signal);
  }
  // Installs a guest signal handler; pass nullptr to restore the default action.
  SimTask<Result<void>> Sigaction(int signal,
                                  std::function<SimTask<void>(Guest&, int)> handler);
  SimTask<Result<void>> CheckSignals() { return kernel_.procs().CheckSignals(uproc_); }

  SimTask<Result<int>> ShmOpen(std::string name, uint64_t size) {
    return kernel_.ipc().ShmOpen(uproc_, std::move(name), size);
  }
  SimTask<Result<Capability>> ShmMap(int shm_id) { return kernel_.ipc().ShmMap(uproc_, shm_id); }
  SimTask<Result<void>> ShmUnlink(std::string name) {
    return kernel_.ipc().ShmUnlink(uproc_, std::move(name));
  }

  // execve / posix_spawn over the kernel's registered program images.
  SimTask<Result<void>> Exec(std::string program) {
    return kernel_.procs().Exec(uproc_, std::move(program));
  }
  SimTask<Result<Pid>> SpawnProgram(std::string program) {
    return kernel_.procs().Spawn(uproc_, std::move(program));
  }
  SimTask<Result<void>> Nanosleep(Cycles duration) {
    return kernel_.procs().Nanosleep(uproc_, duration);
  }
  // pthread-style threads within this μprocess. The thread closure follows the same GCC 12
  // hoisting rule as Fork's.
  SimTask<Result<ThreadId>> ThreadCreate(GuestFn fn);
  SimTask<Result<void>> ThreadJoin(ThreadId tid) {
    return kernel_.procs().ThreadJoin(uproc_, tid);
  }
  SimTask<Result<void>> FutexWait(const Capability& cap, uint64_t va, uint64_t expected) {
    return kernel_.ipc().FutexWait(uproc_, cap, va, expected);
  }
  SimTask<Result<uint64_t>> FutexWake(const Capability& cap, uint64_t va, uint64_t n = 1) {
    return kernel_.ipc().FutexWake(uproc_, cap, va, n);
  }
  // Not a syscall: models user code executing an MSR/MRS-class instruction, which the
  // hardware permits only with the System permission on the executing PCC (§4.4, second
  // principle). User μprocesses lack it, so this returns kFaultSystem.
  SimTask<Result<void>> PrivilegedOp();

  // The guest runtime's trap vector (simulator substitution): a guest program that observes an
  // unresolvable kFault* error from a memory access reports it here, and the kernel delivers
  // SIGSEGV — terminating this μprocess (status 128 + SIGSEGV) unless a handler is installed.
  // On hardware the exception would enter the kernel directly; here the guest routes it.
  SimTask<void> RaiseFault(const Error& fault) { return kernel_.procs().RaiseFault(uproc_, fault); }

  // --- host <-> guest staging helpers -----------------------------------------------------------

  // Writes host bytes into a fresh guest allocation and returns its capability.
  Result<Capability> PlaceBytes(std::span<const std::byte> data);
  Result<Capability> PlaceString(const std::string& s);
  Result<std::vector<std::byte>> FetchBytes(const Capability& cap, uint64_t len);

 private:
  Kernel& kernel_;
  Uproc& uproc_;
};

}  // namespace ufork

#endif  // UFORK_SRC_GUEST_GUEST_H_
