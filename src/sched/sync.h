// Virtual-time synchronization primitives.
//
// VirtualLock models Unikraft's "big kernel lock" SMP mode (paper §4.5): application code runs
// concurrently across simulated cores, but kernel code execution serializes on this lock.
// KernelCore owns one when its fork backend asks for it (ForkBackend::big_kernel_lock).
//
// Because the host executes one slice at a time while simulating parallel cores, the lock must
// be *time-aware*: it records the virtual time of the last release (free_at_), and an acquirer
// whose clock is behind that time waits until it — otherwise a thread whose slice was
// host-executed later could observe a release from its virtual future. Handoff to blocked
// waiters is FIFO.
#ifndef UFORK_SRC_SCHED_SYNC_H_
#define UFORK_SRC_SCHED_SYNC_H_

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

}  // namespace ufork

#endif  // UFORK_SRC_SCHED_SYNC_H_
