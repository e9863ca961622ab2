#include "src/kernel/fault_around.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/kernel/page_cache.h"

namespace ufork {
namespace {

// Clears still-set speculative markers in [lo, hi) and returns how many there were. A marker
// that survived until now was a speculative resolution nobody touched — a wasted copy.
uint64_t SweepStaleMarkers(PageTable& pt, uint64_t lo, uint64_t hi) {
  uint64_t stale = 0;
  for (uint64_t va = lo; va < hi; va += kPageSize) {
    Pte* pte = pt.LookupMutable(va);
    if (pte != nullptr && (pte->flags & kPteFaultAround) != 0) {
      pte->flags &= ~kPteFaultAround;
      ++stale;
    }
  }
  return stale;
}

uint32_t ClampedMaxWindow(const FaultAroundConfig& config) {
  return std::clamp<uint32_t>(config.max_window, 1, kMaxFaultAroundWindow);
}

}  // namespace

uint32_t FaultAroundBegin(KernelCore& kernel, Uproc& uproc, const PageFaultInfo& info) {
  const FaultAroundConfig& config = kernel.config().fault_around;
  const uint32_t max_window = ClampedMaxWindow(config);
  if (max_window <= 1) {
    return 1;
  }
  FaultAroundState& state = uproc.fault_around;
  // Audit the previous window: markers still set were wasted speculative copies. Swept for
  // fixed windows too, so the waste counter stays meaningful across the whole sweep matrix.
  const uint64_t wasted = SweepStaleMarkers(*info.page_table, state.spec_lo, state.spec_hi);
  kernel.stats().speculative_pages_wasted += wasted;
  state.spec_lo = 0;
  state.spec_hi = 0;
  uint32_t limit = max_window;
  if (config.adaptive) {
    if (wasted > 0) {
      state.window = std::max<uint32_t>(1, state.window / 2);
    } else if (state.next_va != 0 && info.va == state.next_va) {
      // The previous window was fully consumed and the storm marched straight past its end.
      state.window = std::min(state.window * 2, max_window);
    }
    limit = std::min(state.window, max_window);
  }
  // Pages the faulting access itself spans are guaranteed to be touched — resolving them now
  // is pure win, so the span may raise the window above the adaptive value.
  const uint64_t span_end = std::max(info.access_end, info.va + 1);
  const uint64_t span_pages = (span_end - info.va + kPageSize - 1) / kPageSize;
  return std::max<uint32_t>(limit, std::min<uint64_t>(span_pages, max_window));
}

FaultWindow FaultAroundScan(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                            const PageFaultInfo& info, const Pte& fault_pte, uint32_t limit) {
  const FrameAllocator& frames = kernel.machine().frames();
  FaultWindow window;
  window.va = info.va;
  // Not-present reservations have no frame, hence no sharing class; flags equality already
  // separates them from populated pages (kPteNotPresent never appears on a populated PTE).
  window.shared = PtePopulated(fault_pte) && frames.RefCount(fault_pte.frame) > 1;
  const uint64_t offset = uproc.OffsetOf(info.va);
  window.seg_flags = kernel.SegmentFlagsAt(offset);
  // The window never crosses the segment boundary: resolved permissions change there, and so
  // does the pending state worth batching.
  const uint64_t segment_end = uproc.base + kernel.layout().SegmentEndOf(offset);
  const uint64_t max_end = std::min(info.va + uint64_t{limit} * kPageSize, segment_end);
  for (uint64_t va = info.va + kPageSize; va < max_end; va += kPageSize) {
    const Pte* next = pt.LookupMutable(va);
    if (next == nullptr || next->flags != fault_pte.flags ||
        (PtePopulated(*next) && frames.RefCount(next->frame) > 1) != window.shared) {
      break;
    }
    ++window.pages;
  }
  return window;
}

void FaultAroundCommit(KernelCore& kernel, Uproc& uproc, const FaultWindow& window) {
  KernelStats& stats = kernel.stats();
  ++stats.faults_taken;
  stats.pages_resolved_by_faultaround += window.pages - 1;
  if (ClampedMaxWindow(kernel.config().fault_around) <= 1) {
    return;
  }
  FaultAroundState& state = uproc.fault_around;
  state.next_va = window.va + window.pages * kPageSize;
  state.spec_lo = window.va;
  state.spec_hi = state.next_va;
}

void FaultAroundAccountExitWaste(KernelCore& kernel, Uproc& uproc) {
  FaultAroundState& state = uproc.fault_around;
  if (state.spec_hi <= state.spec_lo || uproc.page_table == nullptr) {
    return;
  }
  kernel.stats().speculative_pages_wasted +=
      SweepStaleMarkers(*uproc.page_table, state.spec_lo, state.spec_hi);
  state.spec_lo = 0;
  state.spec_hi = 0;
}

Result<void> ResolveDemandFault(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                                const PageFaultInfo& info, const Pte& fault_pte) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  // The probe fires before any frame or PTE mutation: an injected failure is indistinguishable
  // from first-allocation exhaustion and must leave the whole window reserved.
  if (kernel.fault_injector().ShouldFail(FaultSite::kLazyFillAlloc)) {
    return Error{Code::kErrNoMem, "demand-fill allocation failed (injected)"};
  }
  const uint32_t limit = FaultAroundBegin(kernel, uproc, info);
  FaultWindow window = FaultAroundScan(kernel, uproc, pt, info, fault_pte, limit);

  Cycles resolved_cycles = costs.page_fault;  // trap cost, charged by the access engine
  auto charge = [&](Cycles cycles) {
    machine.Charge(cycles);
    resolved_cycles += cycles;
  };

  const bool file_backed = (fault_pte.flags & kPteFileBacked) != 0;
  std::array<FrameId, kMaxFaultAroundWindow> fresh;
  uint64_t filled = 0;
  const auto release_filled = [&]() {
    for (uint64_t i = 0; i < filled; ++i) {
      machine.frames().Release(fresh[i]);
    }
  };
  for (uint64_t i = 0; i < window.pages; ++i) {
    const uint64_t va = window.va + i * kPageSize;
    Result<FrameId> frame = Error{Code::kErrNoMem, "unfilled"};
    if (!file_backed) {
      frame = machine.frames().Allocate();  // zero-fill demand page
      if (frame.ok()) {
        charge(costs.frame_alloc);
      }
    } else {
      const Uproc::FileMapping* mapping = uproc.FileMappingAt(va);
      if (mapping == nullptr) {
        release_filled();
        return Error{Code::kFaultNotMapped, "file-backed reservation without a mapping"};
      }
      const uint64_t page_index = mapping->start_page + (va - mapping->va) / kPageSize;
      frame = kernel.page_cache().GetFrame(mapping->inode, page_index);
      if (frame.ok() && info.is_write) {
        // Write fault on a private file mapping: break the share now — filling a read-only
        // cache mapping would only bounce straight into a second (CoW) fault.
        auto copy = machine.frames().AllocateForCopy();
        if (copy.ok()) {
          charge(costs.frame_alloc + costs.page_copy);
          machine.frames().CopyFrame(*copy, *frame);
          machine.frames().Release(*frame);
          frame = *copy;
        } else {
          machine.frames().Release(*frame);
          frame = copy.error();
        }
      }
    }
    if (!frame.ok()) {
      if (i == 0) {
        release_filled();  // nothing filled yet: the contract is explicit, not incidental
        return frame.error();
      }
      window.pages = i;  // degrade: the speculative tail stays reserved for a later fault
      break;
    }
    fresh[filled++] = *frame;
  }

  uint32_t final_flags = window.seg_flags;
  if (file_backed && !info.is_write) {
    // Clean cache pages map read-only + CoW: the cache's own reference keeps the refcount
    // above one, so the first write takes the ordinary copy-out break.
    final_flags = (window.seg_flags & ~kPteWrite) | kPteCow;
  }
  charge(window.pages == 1 ? costs.pte_update : costs.pte_update_batched);
  pt.RemapRange(window.va, std::span<const FrameId>(fresh.data(), window.pages), final_flags,
                /*extra_flags_after_first=*/kPteFaultAround);
  kernel.stats().pages_demand_filled += window.pages;
  kernel.stats().fault_cycles += resolved_cycles;
  FaultAroundCommit(kernel, uproc, window);
  return OkResult();
}

Result<void> ResolveCowWriteWindow(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                                   const PageFaultInfo& info, const Pte& fault_pte) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  const uint32_t limit = FaultAroundBegin(kernel, uproc, info);
  FaultWindow window = FaultAroundScan(kernel, uproc, pt, info, fault_pte, limit);

  Cycles resolved_cycles = costs.page_fault;  // trap cost, charged by the access engine
  auto charge = [&](Cycles cycles) {
    machine.Charge(cycles);
    resolved_cycles += cycles;
  };

  KernelStats& stats = kernel.stats();
  if (window.shared) {
    std::array<FrameId, kMaxFaultAroundWindow> fresh;
    if (!machine.frames().AllocateForCopy(std::span(fresh.data(), window.pages)).ok()) {
      window.pages = 1;
      UF_RETURN_IF_ERROR(machine.frames().AllocateForCopy(std::span(fresh.data(), 1)));
    }
    std::array<FrameId, kMaxFaultAroundWindow> old;
    for (uint64_t i = 0; i < window.pages; ++i) {
      Pte* page = pt.LookupMutable(info.va + i * kPageSize);
      charge(costs.frame_alloc + costs.page_copy);
      machine.frames().CopyFrame(fresh[i], page->frame);
      old[i] = page->frame;
    }
    charge(window.pages == 1 ? costs.pte_update : costs.pte_update_batched);
    pt.RemapRange(info.va, std::span<const FrameId>(fresh.data(), window.pages),
                  window.seg_flags, /*extra_flags_after_first=*/kPteFaultAround);
    for (uint64_t i = 0; i < window.pages; ++i) {
      machine.frames().Release(old[i]);
    }
    stats.pages_copied_on_fault += window.pages;
  } else {
    charge(window.pages == 1 ? costs.pte_update : costs.pte_update_batched);
    pt.SetFlagsRange(info.va, window.pages, window.seg_flags,
                     /*extra_flags_after_first=*/kPteFaultAround);
    stats.pages_reclaimed_in_place += window.pages;
  }
  stats.fault_cycles += resolved_cycles;
  FaultAroundCommit(kernel, uproc, window);
  return OkResult();
}

}  // namespace ufork
