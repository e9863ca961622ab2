// The capability-checked memory access engine.
//
// Every guest memory access flows through Machine: the authorizing capability is checked first
// (CHERI semantics: tag, seal, permission, bounds — faults here are guest-visible exceptions),
// then the address is translated through the supplied page table. Page-level violations with
// the kPteCow bit, and tagged capability loads through kPteLoadCapFault PTEs, are *resolvable*:
// the engine charges the fault cost, invokes the kernel-installed resolver (μFork's CoW/CoA/
// CoPA copy machinery), and retries the access. Everything else propagates as an error that the
// kernel turns into a μprocess-fatal signal.
//
// The SAS kernel passes one shared PageTable; the MAS baseline passes the calling process's
// own table. Cycle charges flow through a caller-installed sink (the scheduler).
#ifndef UFORK_SRC_MACHINE_MACHINE_H_
#define UFORK_SRC_MACHINE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/machine/cost_model.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/page_table.h"

namespace ufork {

struct PageFaultInfo {
  // kFaultPageProt (CoW write), kFaultCapLoadPage (CoPA), or kFaultNotPresent (demand fill
  // of a reserved-but-unpopulated page, DESIGN.md §4.12).
  Code kind = Code::kOk;
  uint64_t va = 0;        // page-aligned faulting address
  // Exclusive end of the guest access that faulted. A bulk Load/Store that spans pages beyond
  // `va` announces its full extent here, letting the fault-around resolver size its window to
  // pages the access is guaranteed to touch. Never below va (scalar accesses: va + width).
  uint64_t access_end = 0;
  bool is_write = false;
  PageTable* page_table = nullptr;
};

// Returns kOk if the fault was resolved (mapping changed; retry the access), or an error that
// becomes the guest-visible fault.
using FaultResolver = std::function<Result<void>(const PageFaultInfo&)>;

struct MachineConfig {
  uint64_t phys_frames = (2 * kGiB) / kPageSize;
  CostModel costs;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  FrameAllocator& frames() { return frames_; }
  const FrameAllocator& frames() const { return frames_; }
  const CostModel& costs() const { return costs_; }

  void set_cycle_sink(std::function<void(Cycles)> sink) { cycle_sink_ = std::move(sink); }
  void set_fault_resolver(FaultResolver resolver) { fault_resolver_ = std::move(resolver); }

  // Compaction forwarding window (DESIGN.md §4.13): consulted only when translation finds no
  // PTE at all. Returning an alternate page-aligned VA retries the lookup there, so the moved
  // prefix of a mid-move region resolves against its new half. With no move in flight the hook
  // returns nullopt and the unmapped access faults exactly as before; the extra walk charges
  // no cycles (the forwarding table lookup is folded into the access cost).
  using VaForwarder = std::function<std::optional<uint64_t>(uint64_t page_va)>;
  void set_va_forwarder(VaForwarder forwarder) { va_forwarder_ = std::move(forwarder); }

  void Charge(Cycles cycles) {
    if (cycle_sink_) {
      cycle_sink_(cycles);
    }
  }

  // --- Data access ----------------------------------------------------------------------------

  Result<void> Load(PageTable& pt, const Capability& auth, uint64_t va,
                    std::span<std::byte> out);
  Result<void> Store(PageTable& pt, const Capability& auth, uint64_t va,
                     std::span<const std::byte> in);
  Result<void> Fill(PageTable& pt, const Capability& auth, uint64_t va, uint64_t size,
                    std::byte value);

  // Guest-to-guest copy (memcpy semantics, no tag propagation — plain data view).
  Result<void> Copy(PageTable& pt, const Capability& dst_auth, uint64_t dst,
                    const Capability& src_auth, uint64_t src, uint64_t size);

  template <typename T>
  Result<T> LoadScalar(PageTable& pt, const Capability& auth, uint64_t va) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    UF_RETURN_IF_ERROR(Load(pt, auth, va, std::as_writable_bytes(std::span(&value, 1))));
    return value;
  }
  template <typename T>
  Result<void> StoreScalar(PageTable& pt, const Capability& auth, uint64_t va, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return Store(pt, auth, va, std::as_bytes(std::span(&value, 1)));
  }

  // --- Capability access ----------------------------------------------------------------------

  // Tagged loads honour the kPteLoadCapFault attribute (CoPA). Untagged granules load as
  // integers without faulting, exactly as the paper requires ("non memory reference loads do
  // not trigger copying", §3.8).
  Result<Capability> LoadCap(PageTable& pt, const Capability& auth, uint64_t va);
  Result<void> StoreCap(PageTable& pt, const Capability& auth, uint64_t va,
                        const Capability& value);

  // --- Privileged (kernel) store: no capability checks, no fault resolution -------------------
  //
  // Plants a capability in a mapped page the caller owns outright.
  void KernelStoreCap(PageTable& pt, uint64_t va, const Capability& value);

  // Accounting: total resolvable faults serviced, by kind.
  uint64_t cow_faults() const { return cow_faults_; }
  uint64_t cap_load_faults() const { return cap_load_faults_; }
  uint64_t demand_faults() const { return demand_faults_; }

 private:
  // Translates, checks page permissions, and resolves CoW/CoPA faults. Returns the PTE.
  // `access_end` is the exclusive end of the full guest access (forwarded to the resolver).
  Result<Pte> TranslateForAccess(PageTable& pt, uint64_t page_va, uint64_t access_end,
                                 bool is_write, bool is_tagged_cap_load);

  FrameAllocator frames_;
  CostModel costs_;
  std::function<void(Cycles)> cycle_sink_;
  FaultResolver fault_resolver_;
  VaForwarder va_forwarder_;
  uint64_t cow_faults_ = 0;
  uint64_t cap_load_faults_ = 0;
  uint64_t demand_faults_ = 0;
  std::vector<std::byte> copy_scratch_;  // Copy's bounce buffer, grown to the largest chunk
};

}  // namespace ufork

#endif  // UFORK_SRC_MACHINE_MACHINE_H_
