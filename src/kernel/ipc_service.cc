#include "src/kernel/ipc_service.h"

#include <optional>

#include "src/kernel/kernel.h"
#include "src/kernel/pipe.h"
#include "src/kernel/syscall_scope.h"

namespace ufork {

IpcService::IpcService(Kernel& kernel)
    : kernel_(kernel),
      mqueues_(kernel.sched(), kernel.BlockingWakeCycles(), &kernel.fault_injector()) {}

SimTask<Result<std::pair<int, int>>> IpcService::Pipe(Uproc& caller) {
  SyscallScope scope(kernel_, caller, Sys::kPipe);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().pipe_op);
  if (kernel_.fault_injector().ShouldFail(FaultSite::kPipeReserve)) {
    co_return Error{Code::kErrNoMem, "pipe buffer reservation failed (injected)"};
  }
  auto [read_end, write_end] = Pipe::Create(kernel_.sched(), kernel_.BlockingWakeCycles(),
                                            &kernel_.fault_injector());
  auto rfd = caller.fds->Install(std::move(read_end));
  if (!rfd.ok()) {
    co_return rfd.error();
  }
  auto wfd = caller.fds->Install(std::move(write_end));
  if (!wfd.ok()) {
    (void)caller.fds->Close(*rfd);
    co_return wfd.error();
  }
  co_return std::make_pair(*rfd, *wfd);
}

SimTask<Result<int>> IpcService::MqOpen(Uproc& caller, std::string name, bool create) {
  SyscallScope scope(kernel_, caller, Sys::kMqOpen);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().vfs_op);
  auto queue = mqueues_.Open(name, create);
  if (!queue.ok()) {
    co_return queue.error();
  }
  co_return caller.fds->Install(std::move(*queue));
}

// --- POSIX shared memory --------------------------------------------------------------------

SimTask<Result<int>> IpcService::ShmOpen(Uproc& caller, std::string name, uint64_t size) {
  SyscallScope scope(kernel_, caller, Sys::kShmOpen);
  co_await scope.Enter();
  auto existing = shm_by_name_.find(name);
  if (existing != shm_by_name_.end()) {
    co_return existing->second;
  }
  Machine& machine = kernel_.machine();
  size = AlignUp(size, kPageSize);
  if (size == 0) {
    co_return Error{Code::kErrInval, "zero-sized shared memory object"};
  }
  ShmObject object;
  object.name = name;
  object.size = size;
  for (uint64_t off = 0; off < size; off += kPageSize) {
    auto frame = machine.frames().Allocate();
    if (!frame.ok()) {
      for (const FrameId f : object.frames) {
        machine.frames().Release(f);
      }
      co_return frame.error();
    }
    machine.Charge(kernel_.costs().frame_alloc);
    object.frames.push_back(*frame);
  }
  const int id = next_shm_id_++;
  shm_by_name_.emplace(std::move(name), id);
  shm_objects_.emplace(id, std::move(object));
  co_return id;
}

SimTask<Result<Capability>> IpcService::ShmMap(Uproc& caller, int shm_id) {
  SyscallScope scope(kernel_, caller, Sys::kShmMap);
  co_await scope.Enter();
  auto it = shm_objects_.find(shm_id);
  if (it == shm_objects_.end()) {
    co_return Error{Code::kErrBadFd, "no such shared memory object"};
  }
  Machine& machine = kernel_.machine();
  ShmObject& object = it->second;
  const uint64_t zone_end =
      caller.base + kernel_.layout().mmap_off() + kernel_.layout().mmap_size();
  if (caller.mmap_cursor + object.size > zone_end) {
    co_return Error{Code::kErrNoMem, "mmap zone exhausted"};
  }
  const uint64_t addr = caller.mmap_cursor;
  for (uint64_t i = 0; i < object.frames.size(); ++i) {
    machine.frames().AddRef(object.frames[i]);
    machine.Charge(kernel_.costs().pte_update);
    // kPteShared exempts these pages from fork-time CoW: MAP_SHARED survives fork shared.
    caller.page_table->Map(addr + i * kPageSize, object.frames[i], kPteRw | kPteShared);
  }
  caller.mmap_cursor += object.size;
  // The window carries data permissions only: capabilities cannot be laundered between
  // μprocesses through shared memory (they would carry foreign-region authority).
  co_return caller.regs.ddc.WithBounds(addr, object.size)
      .WithPermsAnd(~(kPermLoadCap | kPermStoreCap));
}

SimTask<Result<void>> IpcService::ShmUnlink(Uproc& caller, std::string name) {
  SyscallScope scope(kernel_, caller, Sys::kShmUnlink);
  co_await scope.Enter();
  auto it = shm_by_name_.find(name);
  if (it == shm_by_name_.end()) {
    co_return Error{Code::kErrNoEnt, "no such shared memory object"};
  }
  auto object_it = shm_objects_.find(it->second);
  UF_CHECK(object_it != shm_objects_.end());
  // Drop the registry's reference; frames survive while mappings keep them referenced.
  for (const FrameId frame : object_it->second.frames) {
    kernel_.machine().frames().Release(frame);
  }
  shm_objects_.erase(object_it);
  shm_by_name_.erase(it);
  co_return OkResult();
}

// --- futex ----------------------------------------------------------------------------------

SimTask<Result<void>> IpcService::FutexWait(Uproc& caller, Capability cap, uint64_t va,
                                            uint64_t expected) {
  SyscallScope scope(kernel_, caller, Sys::kFutexWait);
  co_await scope.Enter();
  auto check = kernel_.ValidateUserBuffer(caller, cap, va, 8, /*is_write=*/false);
  if (!check.ok()) {
    co_return check.error();
  }
  // Load the word through the caller's capability (CoW/CoPA resolve underneath), then key the
  // queue by the *physical* location so MAP_SHARED futexes pair up across μprocesses.
  auto value = kernel_.machine().LoadScalar<uint64_t>(*caller.page_table, cap, va);
  if (!value.ok()) {
    co_return value.error();
  }
  const std::optional<Pte> pte = caller.page_table->Lookup(va);
  if (!pte.has_value()) {
    // Guest-reachable (a capability can outlive the mapping it was derived over), so this is a
    // fault delivered to the caller, not a kernel invariant.
    co_return Error{Code::kFaultNotMapped, "futex word on unmapped page"};
  }
  const auto key = std::make_pair(pte->frame, va % kPageSize);
  if (*value != expected) {
    co_return Error{Code::kErrAgain, "futex value changed"};
  }
  auto& queue = futexes_[key];
  if (queue == nullptr) {
    queue = std::make_unique<WaitQueue>(kernel_.sched());
    queue->set_resume_delay(kernel_.costs().sched_wakeup);
  }
  WaitQueue& wq = *queue;
  scope.Leave();  // never block holding the kernel lock
  co_await wq.Wait();
  co_return OkResult();
}

SimTask<Result<uint64_t>> IpcService::FutexWake(Uproc& caller, Capability cap, uint64_t va,
                                                uint64_t n) {
  SyscallScope scope(kernel_, caller, Sys::kFutexWake);
  co_await scope.Enter();
  auto check = kernel_.ValidateUserBuffer(caller, cap, va, 8, /*is_write=*/false);
  if (!check.ok()) {
    co_return check.error();
  }
  const std::optional<Pte> pte = caller.page_table->Lookup(va);
  if (!pte.has_value()) {
    co_return Error{Code::kFaultNotMapped, "futex word on unmapped page"};
  }
  auto it = futexes_.find(std::make_pair(pte->frame, va % kPageSize));
  uint64_t woken = 0;
  if (it != futexes_.end()) {
    kernel_.machine().Charge(kernel_.costs().sched_wakeup);
    woken = it->second->Wake(n);
  }
  co_return woken;
}

}  // namespace ufork
