// IpcService: inter-process-communication syscalls and state.
//
// Owns pipes, POSIX message queues, POSIX shared memory objects and
// futexes (keyed by physical location so MAP_SHARED futexes pair up across μprocesses).
#ifndef UFORK_SRC_KERNEL_IPC_SERVICE_H_
#define UFORK_SRC_KERNEL_IPC_SERVICE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/kernel/mqueue.h"
#include "src/kernel/uproc.h"
#include "src/sched/scheduler.h"
#include "src/sched/task.h"

namespace ufork {

class Kernel;

class IpcService {
 public:
  explicit IpcService(Kernel& kernel);

  IpcService(const IpcService&) = delete;
  IpcService& operator=(const IpcService&) = delete;

  SimTask<Result<std::pair<int, int>>> Pipe(Uproc& caller);
  SimTask<Result<int>> MqOpen(Uproc& caller, std::string name, bool create);

  // POSIX shared memory (§3.7). ShmOpen is shm_open + ftruncate to `size` bytes. ShmMap maps
  // the object's frames into the caller's mmap zone with data permissions but without
  // LoadCap/StoreCap, so capabilities cannot be laundered between μprocesses (§4.2/§4.3).
  SimTask<Result<int>> ShmOpen(Uproc& caller, std::string name, uint64_t size);
  SimTask<Result<Capability>> ShmMap(Uproc& caller, int shm_id);
  SimTask<Result<void>> ShmUnlink(Uproc& caller, std::string name);

  // FutexWait blocks while the word at `va` equals `expected` (EAGAIN otherwise); FutexWake
  // wakes up to `n` waiters and returns how many it woke.
  SimTask<Result<void>> FutexWait(Uproc& caller, Capability cap, uint64_t va,
                                  uint64_t expected);
  SimTask<Result<uint64_t>> FutexWake(Uproc& caller, Capability cap, uint64_t va, uint64_t n);

  // Enumerates the frame references the shm registry holds outside any page table, for the
  // kernel's frame-accounting invariant checker.
  void ForEachShmFrame(const std::function<void(FrameId)>& fn) const {
    for (const auto& [id, object] : shm_objects_) {
      for (const FrameId frame : object.frames) {
        fn(frame);
      }
    }
  }

 private:
  struct ShmObject {
    std::string name;
    std::vector<FrameId> frames;
    uint64_t size = 0;
    bool unlinked = false;
  };

  Kernel& kernel_;
  MqRegistry mqueues_;
  std::map<std::string, int> shm_by_name_;
  std::map<int, ShmObject> shm_objects_;
  int next_shm_id_ = 1;
  // Futex wait queues keyed by physical location (frame, offset): shared-memory futexes work
  // across μprocesses mapping the same frames.
  std::map<std::pair<FrameId, uint64_t>, std::unique_ptr<WaitQueue>> futexes_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_IPC_SERVICE_H_
