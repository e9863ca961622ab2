#include "src/guest/guest.h"

#include "src/guest/tinyalloc.h"

namespace ufork {

UprocEntry MakeGuestEntry(GuestFn fn) {
  // The returned callable is a coroutine whose parameters (not lambda captures!) carry the
  // state, so the frame owns everything it needs for the lifetime of the μprocess thread.
  struct Adapter {
    static SimTask<void> Run(Kernel& kernel, Uproc& uproc, GuestFn guest_fn) {
      Guest guest(kernel, uproc);
      if (!uproc.forked_child) {
        const Result<void> init = guest.InitRuntime();
        if (!init.ok()) {
          // Exhaustion (real or injected) during crt init — under demand paging even the
          // first heap touch can fail. A real runtime would crash the process, not the
          // machine: contain to this μprocess via the trap vector (default SIGSEGV).
          co_await guest.RaiseFault(init.error());
          co_return;
        }
      }
      co_await guest_fn(guest);
    }
  };
  return [fn = std::move(fn)](Kernel& kernel, Uproc& uproc) -> SimTask<void> {
    return Adapter::Run(kernel, uproc, fn);
  };
}

Result<void> Guest::InitRuntime() {
  UF_RETURN_IF_ERROR(tinyalloc::Init(*this));
  // Populate the GOT: capabilities to the runtime's global objects. A PIC program reaches all
  // globals through these slots; fork copies + relocates the GOT pages eagerly (§3.5), which
  // is what makes globals work in the child without any code change.
  const uint64_t heap_root = base() + layout().heap_off();
  UF_RETURN_IF_ERROR(GotStore(kGotSlotHeapRoot, ddc().WithBounds(heap_root, kPageSize)));
  const uint64_t data_seg = base() + layout().data_off();
  UF_RETURN_IF_ERROR(
      GotStore(kGotSlotDataSeg, ddc().WithBounds(data_seg, layout().data_size())));
  return OkResult();
}

Result<void> Guest::GotStore(int slot, const Capability& value) {
  const uint64_t got_base = base() + layout().got_off();
  const uint64_t va = got_base + static_cast<uint64_t>(slot) * kCapSize;
  if (slot < 0 || va + kCapSize > got_base + layout().got_size()) {
    return Error{Code::kErrInval, "GOT slot out of range"};
  }
  return StoreCap(ddc(), va, value);
}

Result<Capability> Guest::GotLoad(int slot) {
  const uint64_t got_base = base() + layout().got_off();
  const uint64_t va = got_base + static_cast<uint64_t>(slot) * kCapSize;
  if (slot < 0 || va + kCapSize > got_base + layout().got_size()) {
    return Error{Code::kErrInval, "GOT slot out of range"};
  }
  return LoadCap(ddc(), va);
}

Result<Capability> Guest::Malloc(uint64_t size) { return tinyalloc::Alloc(*this, size); }

Result<void> Guest::Free(const Capability& allocation) {
  return tinyalloc::Free(*this, allocation);
}

SimTask<Result<Pid>> Guest::Fork(GuestFn child_fn) {
  return kernel_.procs().Fork(uproc_, MakeGuestEntry(std::move(child_fn)));
}

SimTask<Result<ThreadId>> Guest::ThreadCreate(GuestFn fn) {
  // Secondary threads skip crt initialization: they share the already-initialized image.
  UprocEntry entry = [fn = std::move(fn)](Kernel& kernel, Uproc& uproc) -> SimTask<void> {
    return [](Kernel& k, Uproc& u, GuestFn f) -> SimTask<void> {
      Guest guest(k, u);
      co_await f(guest);
    }(kernel, uproc, fn);
  };
  return kernel_.procs().ThreadCreate(uproc_, std::move(entry));
}

SimTask<Result<void>> Guest::Sigaction(int signal,
                                       std::function<SimTask<void>(Guest&, int)> handler) {
  SignalHandler kernel_handler;
  if (handler) {
    kernel_handler = [fn = std::move(handler)](Kernel& kernel, Uproc& uproc,
                                               int sig) -> SimTask<void> {
      Guest guest(kernel, uproc);
      co_await fn(guest, sig);
    };
  }
  return kernel_.procs().Sigaction(uproc_, signal, std::move(kernel_handler));
}

SimTask<Result<void>> Guest::PrivilegedOp() {
  if (!uproc_.regs.pcc.HasPerms(kPermSystem)) {
    co_return Error{Code::kFaultSystem, "privileged instruction without System permission"};
  }
  co_return OkResult();
}

Result<Capability> Guest::PlaceBytes(std::span<const std::byte> data) {
  UF_ASSIGN_OR_RETURN(const Capability cap, Malloc(data.size()));
  UF_RETURN_IF_ERROR(WriteBytes(cap, cap.base(), data));
  return cap;
}

Result<Capability> Guest::PlaceString(const std::string& s) {
  return PlaceBytes(std::as_bytes(std::span(s.data(), s.size())));
}

Result<std::vector<std::byte>> Guest::FetchBytes(const Capability& cap, uint64_t len) {
  std::vector<std::byte> out(len);
  UF_RETURN_IF_ERROR(ReadBytes(cap, cap.base(), out));
  return out;
}

}  // namespace ufork
