// Virtual-time synchronization primitives.
//
// VirtualLock models Unikraft's "big kernel lock" SMP mode (paper §4.5): application code runs
// concurrently across simulated cores, but kernel code execution serializes on this lock.
//
// Because the host executes one slice at a time while simulating parallel cores, the lock must
// be *time-aware*: it records the virtual time of the last release (free_at_), and an acquirer
// whose clock is behind that time waits until it — otherwise a thread whose slice was
// host-executed later could observe a release from its virtual future. Handoff to blocked
// waiters is FIFO.
#ifndef UFORK_SRC_SCHED_SYNC_H_
#define UFORK_SRC_SCHED_SYNC_H_

#include <array>
#include <memory>

#include "src/sched/scheduler.h"
#include "src/sched/task.h"

namespace ufork {

class VirtualLock {
 public:
  explicit VirtualLock(Scheduler& sched) : sched_(sched), queue_(sched) {}

  VirtualLock(const VirtualLock&) = delete;
  VirtualLock& operator=(const VirtualLock&) = delete;

  // Awaitable acquire: `co_await lock.Acquire()`. Returns holding the lock.
  SimTask<void> Acquire() {
    for (;;) {
      if (held_) {
        co_await queue_.Wait();  // woken by Release at the releaser's virtual time
        continue;
      }
      const Cycles now = sched_.Now();
      if (now < free_at_) {
        // The lock was released in this thread's virtual future; wait it out.
        co_await sched_.Sleep(free_at_ - now);
        continue;
      }
      held_ = true;
      owner_ = sched_.InThread() ? sched_.Current().tid() : kInvalidThread;
      co_return;
    }
  }

  void Release() {
    UF_CHECK_MSG(held_, "releasing an unheld VirtualLock");
    UF_CHECK_MSG(!sched_.InThread() || owner_ == sched_.Current().tid(),
                 "VirtualLock released by a non-owner");
    held_ = false;
    owner_ = kInvalidThread;
    if (sched_.Now() > free_at_) {
      free_at_ = sched_.Now();
    }
    queue_.Wake(1);
  }

  bool held() const { return held_; }
  uint64_t waiters() const { return queue_.size(); }

 private:
  Scheduler& sched_;
  WaitQueue queue_;
  bool held_ = false;
  ThreadId owner_ = kInvalidThread;
  Cycles free_at_ = 0;
};

// How kernel code serializes across simulated cores.
enum class LockMode : uint8_t {
  kBigKernelLock,  // one lock for all kernel sections — Unikraft's SMP mode (paper §4.5)
  kPerService,     // one VirtualLock per LockDomain: fine-grained locking, honestly modeled
                   // (cross-domain syscalls run concurrently, same-domain ones serialize)
  kUncontended,    // no kernel locks at all: the idealized fine-grained kernel the MAS
                   // baseline calibration assumes (contention never appears in its figures)
};

const char* LockModeName(LockMode mode);

// The coarse-grained subsystems kernel sections belong to. Each syscall declares its domain in
// the syscall table; SyscallScope acquires the domain's lock.
enum class LockDomain : uint8_t {
  kProc = 0,     // process lifecycle: fork/wait/exit/signals/exec/threads
  kFile = 1,     // VFS and descriptor table operations
  kIpc = 2,      // pipes, message queues, shared memory, futexes
  kCompact = 3,  // background compaction/revocation service quanta (DESIGN.md §4.13)
};

inline constexpr size_t kNumLockDomains = 4;

const char* LockDomainName(LockDomain domain);

// Maps lock domains to VirtualLocks per the configured mode.
//
// Under kBigKernelLock every domain resolves to the SAME lock, which makes the refactored
// per-domain acquire bit-identical (in virtual cycles) to the historical single-BKL kernel:
// the golden-cycle pins rely on this. kPerService gives each domain its own lock;
// kUncontended resolves every domain to nullptr (callers skip acquisition entirely).
class LockDomainSet {
 public:
  LockDomainSet(Scheduler& sched, LockMode mode) : mode_(mode) {
    switch (mode) {
      case LockMode::kBigKernelLock:
        locks_[0] = std::make_unique<VirtualLock>(sched);
        break;
      case LockMode::kPerService:
        for (auto& lock : locks_) {
          lock = std::make_unique<VirtualLock>(sched);
        }
        break;
      case LockMode::kUncontended:
        break;
    }
  }

  LockDomainSet(const LockDomainSet&) = delete;
  LockDomainSet& operator=(const LockDomainSet&) = delete;

  // The lock guarding `domain`, or nullptr when kernel sections run lock-free.
  VirtualLock* Get(LockDomain domain) {
    switch (mode_) {
      case LockMode::kBigKernelLock:
        return locks_[0].get();
      case LockMode::kPerService:
        return locks_[static_cast<size_t>(domain)].get();
      case LockMode::kUncontended:
        return nullptr;
    }
    return nullptr;
  }

  LockMode mode() const { return mode_; }

 private:
  LockMode mode_;
  std::array<std::unique_ptr<VirtualLock>, kNumLockDomains> locks_;
};

inline const char* LockModeName(LockMode mode) {
  switch (mode) {
    case LockMode::kBigKernelLock:
      return "bkl";
    case LockMode::kPerService:
      return "per-service";
    case LockMode::kUncontended:
      return "uncontended";
  }
  return "?";
}

inline const char* LockDomainName(LockDomain domain) {
  switch (domain) {
    case LockDomain::kProc:
      return "proc";
    case LockDomain::kFile:
      return "file";
    case LockDomain::kIpc:
      return "ipc";
    case LockDomain::kCompact:
      return "compact";
  }
  return "?";
}

}  // namespace ufork

#endif  // UFORK_SRC_SCHED_SYNC_H_
