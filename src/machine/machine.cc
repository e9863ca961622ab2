#include "src/machine/machine.h"

#include <algorithm>

namespace ufork {

Machine::Machine(const MachineConfig& config)
    : frames_(config.phys_frames), costs_(config.costs) {}

Result<Pte> Machine::TranslateForAccess(PageTable& pt, uint64_t page_va, uint64_t access_end,
                                        bool is_write, bool is_tagged_cap_load) {
  for (int attempt = 0; attempt < 2; ++attempt) {
    Pte* pte = pt.LookupMutable(page_va);
    if (pte == nullptr && va_forwarder_) {
      // Mid-move forwarding: pages already relocated by the incremental compactor are mapped
      // only at their destination; the service's window translates the stale source VA.
      if (const std::optional<uint64_t> fwd = va_forwarder_(page_va); fwd.has_value()) {
        pte = pt.LookupMutable(*fwd);
      }
    }
    if (pte == nullptr) {
      return Error{Code::kFaultNotMapped, "access to unmapped page"};
    }
    if ((pte->flags & kPteNotPresent) != 0) {
      // Demand-paging reservation: the VA is mapped but holds no frame yet. The kernel's
      // demand-fill path populates it (zero-fill or page-cache read-through); a failed fill
      // surfaces as an unresolvable fault the kernel turns into SIGSEGV.
      if (!fault_resolver_ || attempt == 1) {
        return Error{Code::kFaultNotPresent, "access to unpopulated page"};
      }
      PageFaultInfo info;
      info.kind = Code::kFaultNotPresent;
      info.va = page_va;
      info.access_end = std::max(access_end, page_va + 1);
      info.is_write = is_write;
      info.page_table = &pt;
      Charge(costs_.page_fault);
      ++demand_faults_;
      UF_RETURN_IF_ERROR(fault_resolver_(info));
      continue;  // retry with the populated mapping
    }
    // First touch of a speculatively-resolved page: consume the fault-around marker so the
    // adaptive controller knows the speculative copy paid off (host-side bookkeeping only).
    pte->flags &= ~kPteFaultAround;
    const uint32_t required = is_write ? kPteWrite : kPteRead;
    const bool perm_ok = (pte->flags & required) == required;
    const bool cap_load_fault = is_tagged_cap_load && (pte->flags & kPteLoadCapFault) != 0;
    if (perm_ok && !cap_load_fault) {
      return *pte;
    }
    // A permission violation on a CoW-shared page, or a tagged capability load through a
    // load-cap-fault PTE, is resolvable by the fork engine. Anything else is fatal.
    const bool resolvable = (pte->flags & kPteCow) != 0 || cap_load_fault;
    if (!resolvable || !fault_resolver_ || attempt == 1) {
      return Error{perm_ok ? Code::kFaultCapLoadPage : Code::kFaultPageProt,
                   "page permission violation"};
    }
    PageFaultInfo info;
    info.kind = !perm_ok ? Code::kFaultPageProt : Code::kFaultCapLoadPage;
    info.va = page_va;
    info.access_end = std::max(access_end, page_va + 1);
    info.is_write = is_write;
    info.page_table = &pt;
    Charge(costs_.page_fault);
    if (!perm_ok && (pte->flags & kPteCow) != 0) {
      ++cow_faults_;
    } else {
      ++cap_load_faults_;
    }
    UF_RETURN_IF_ERROR(fault_resolver_(info));
    // Retry with the updated mapping.
  }
  UF_UNREACHABLE();
}

Result<void> Machine::Load(PageTable& pt, const Capability& auth, uint64_t va,
                           std::span<std::byte> out) {
  UF_RETURN_IF_ERROR(auth.CheckAccess(va, out.size(), kPermLoad));
  Charge(out.size() <= 16 ? costs_.load_unit : costs_.BulkCopy(out.size()) + costs_.load_unit);
  uint64_t done = 0;
  while (done < out.size()) {
    const uint64_t addr = va + done;
    const uint64_t page_va = AlignDown(addr, kPageSize);
    const uint64_t offset = addr - page_va;
    const uint64_t chunk = std::min<uint64_t>(out.size() - done, kPageSize - offset);
    UF_ASSIGN_OR_RETURN(const Pte pte,
                        TranslateForAccess(pt, page_va, va + out.size(), /*is_write=*/false,
                                           /*is_tagged_cap_load=*/false));
    frames_.frame(pte.frame).Read(offset, out.subspan(done, chunk));
    done += chunk;
  }
  return OkResult();
}

Result<void> Machine::Store(PageTable& pt, const Capability& auth, uint64_t va,
                            std::span<const std::byte> in) {
  UF_RETURN_IF_ERROR(auth.CheckAccess(va, in.size(), kPermStore));
  Charge(in.size() <= 16 ? costs_.store_unit : costs_.BulkCopy(in.size()) + costs_.store_unit);
  uint64_t done = 0;
  while (done < in.size()) {
    const uint64_t addr = va + done;
    const uint64_t page_va = AlignDown(addr, kPageSize);
    const uint64_t offset = addr - page_va;
    const uint64_t chunk = std::min<uint64_t>(in.size() - done, kPageSize - offset);
    UF_ASSIGN_OR_RETURN(const Pte pte,
                        TranslateForAccess(pt, page_va, va + in.size(), /*is_write=*/true,
                                           /*is_tagged_cap_load=*/false));
    frames_.WritableFrame(pte.frame).Write(offset, in.subspan(done, chunk));
    done += chunk;
  }
  return OkResult();
}

Result<void> Machine::Fill(PageTable& pt, const Capability& auth, uint64_t va, uint64_t size,
                           std::byte value) {
  UF_RETURN_IF_ERROR(auth.CheckAccess(va, size, kPermStore));
  Charge(costs_.BulkCopy(size) + costs_.store_unit);
  uint64_t done = 0;
  while (done < size) {
    const uint64_t addr = va + done;
    const uint64_t page_va = AlignDown(addr, kPageSize);
    const uint64_t offset = addr - page_va;
    const uint64_t chunk = std::min<uint64_t>(size - done, kPageSize - offset);
    UF_ASSIGN_OR_RETURN(const Pte pte,
                        TranslateForAccess(pt, page_va, va + size, /*is_write=*/true,
                                           /*is_tagged_cap_load=*/false));
    frames_.WritableFrame(pte.frame).Fill(offset, chunk, value);
    done += chunk;
  }
  return OkResult();
}

Result<void> Machine::Copy(PageTable& pt, const Capability& dst_auth, uint64_t dst,
                           const Capability& src_auth, uint64_t src, uint64_t size) {
  // Chunked through a bounce buffer; real guests use memcpy which the bulk cost models. The
  // buffer grows to the high-water chunk size once and is reused ever after.
  const uint64_t chunk_cap = std::min<uint64_t>(size, 64 * kKiB);
  if (copy_scratch_.size() < chunk_cap) {
    copy_scratch_.resize(chunk_cap);
  }
  uint64_t done = 0;
  while (done < size) {
    const uint64_t chunk = std::min<uint64_t>(size - done, chunk_cap);
    UF_RETURN_IF_ERROR(Load(pt, src_auth, src + done, std::span(copy_scratch_.data(), chunk)));
    UF_RETURN_IF_ERROR(
        Store(pt, dst_auth, dst + done, std::span(copy_scratch_.data(), chunk)));
    done += chunk;
  }
  return OkResult();
}

Result<Capability> Machine::LoadCap(PageTable& pt, const Capability& auth, uint64_t va) {
  UF_RETURN_IF_ERROR(auth.CheckAccess(va, kCapSize, kPermLoad | kPermLoadCap));
  Charge(costs_.cap_load_unit);
  const uint64_t page_va = AlignDown(va, kPageSize);
  // First translate without the cap-load attribute check to inspect the tag: untagged granules
  // load as plain integers and never trigger CoPA ("non memory reference loads do not trigger
  // copying", §3.8). The hardware analogue: the LC fault fires only when the loaded tag is set.
  UF_ASSIGN_OR_RETURN(Pte pte, TranslateForAccess(pt, page_va, va + kCapSize,
                                                  /*is_write=*/false,
                                                  /*is_tagged_cap_load=*/false));
  const bool tagged = frames_.frame(pte.frame).TagAt(va - page_va);
  if (tagged && (pte.flags & kPteLoadCapFault) != 0) {
    UF_ASSIGN_OR_RETURN(pte, TranslateForAccess(pt, page_va, va + kCapSize,
                                                /*is_write=*/false,
                                                /*is_tagged_cap_load=*/true));
  }
  return frames_.frame(pte.frame).LoadCap(va - page_va);
}

Result<void> Machine::StoreCap(PageTable& pt, const Capability& auth, uint64_t va,
                               const Capability& value) {
  uint32_t required = kPermStore;
  if (value.tag()) {
    required |= kPermStoreCap;
  }
  UF_RETURN_IF_ERROR(auth.CheckAccess(va, kCapSize, required));
  Charge(costs_.cap_store_unit);
  const uint64_t page_va = AlignDown(va, kPageSize);
  UF_ASSIGN_OR_RETURN(const Pte pte, TranslateForAccess(pt, page_va, va + kCapSize,
                                                        /*is_write=*/true,
                                                        /*is_tagged_cap_load=*/false));
  frames_.WritableFrame(pte.frame).StoreCap(va - page_va, value);
  return OkResult();
}

void Machine::KernelStoreCap(PageTable& pt, uint64_t va, const Capability& value) {
  const uint64_t page_va = AlignDown(va, kPageSize);
  const std::optional<Pte> pte = pt.Lookup(page_va);
  UF_CHECK_MSG(pte.has_value() && PtePopulated(*pte), "kernel cap store to unmapped page");
  frames_.WritableFrame(pte->frame).StoreCap(va - page_va, value);
}

}  // namespace ufork
