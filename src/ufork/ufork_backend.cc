#include "src/ufork/ufork_backend.h"

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "src/kernel/fault_around.h"
#include "src/ufork/relocate.h"

namespace ufork {

Result<FrameId> UforkBackend::CopyAndRelocate(KernelCore& kernel, FrameId src_frame,
                                              uint64_t region_lo, uint64_t region_size,
                                              RelocationResult* out, RegionMemo* memo) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  UF_ASSIGN_OR_RETURN(const FrameId dst, machine.frames().AllocateForCopy());
  machine.Charge(costs.frame_alloc + costs.page_copy + costs.page_tag_scan);
  machine.frames().CopyFrame(dst, src_frame);
  const RelocationResult reloc = RelocateFrameInto(machine.frames(), dst, kernel.address_space(),
                                                   region_lo, region_size, memo);
  machine.Charge(costs.cap_relocate * reloc.relocated);
  kernel.stats().caps_stripped += reloc.stripped;
  if (out != nullptr) {
    out->tags_seen += reloc.tags_seen;
    out->relocated += reloc.relocated;
    out->stripped += reloc.stripped;
  }
  return dst;
}

Result<Pid> UforkBackend::Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  const ForkStrategy strategy = kernel.config().strategy;
  const UprocLayout& layout = kernel.layout();

  machine.Charge(costs.fork_base_sas);

  // 1. Parent state duplication (§3.5 step 1): reserve a contiguous region and duplicate the
  //    parent's page-table entries into it.
  UF_ASSIGN_OR_RETURN(Uproc* const created, kernel.CreateUproc(parent.name + "+", parent.pid()));
  Uproc& child = *created;

  ForkStats stats;
  PageTable& pt = *parent.page_table;  // the shared table
  RelocationResult eager_reloc;
  RegionMemo eager_memo;  // source-interval cache shared across the whole eager sweep
  Cycles swept = 0;       // per-page charges, summed: nothing in the sweep reads Now()
  std::optional<Error> copy_failed;
  // Parent PTEs this fork write-protected, as runs of equal original flags, so that a
  // mid-fork rollback restores exactly those.
  struct DemotedRun {
    uint64_t lo;
    uint64_t hi;
    uint32_t flags;
  };
  std::vector<DemotedRun> demoted;

  // One leaf-run sweep per stretch of pages that share segment flags and the proactive-copy
  // answer (DESIGN.md §4.1).
  for (uint64_t off = 0; off < parent.size && !copy_failed;) {
    const uint64_t run_end = layout.ForkRunEndOf(off);
    const uint32_t seg_flags = kernel.SegmentFlagsAt(off);
    const bool proactive = strategy == ForkStrategy::kFull || layout.IsProactiveCopyPage(off);
    // Shared mapping. The child side carries kPteCow (faults resolvable) and, under CoPA, the
    // load-cap-fault attribute; under CoA no access bits at all.
    uint32_t child_flags = 0;
    switch (strategy) {
      case ForkStrategy::kCopa:
        child_flags = (seg_flags & ~kPteWrite) | kPteCow | kPteLoadCapFault;
        break;
      case ForkStrategy::kCoa:
        child_flags = kPteCow;
        break;
      case ForkStrategy::kUnsafeCow:
        child_flags = (seg_flags & ~kPteWrite) | kPteCow;
        break;
      case ForkStrategy::kFull:
        break;  // every private page is copied
    }
    pt.CloneRange(
        pt, parent.base + off, child.base + off, run_end - off,
        [&](uint64_t parent_va, Pte& parent_pte) -> std::optional<Pte> {
          swept += costs.pte_dup;
          if (!PtePopulated(parent_pte)) {
            // Demand reservation: the child inherits the lazy state verbatim — no frame to
            // share, relocate, or CoW-protect; each side fills privately on first touch.
            ++stats.pages_reserved;
            return parent_pte;
          }
          ++stats.pages_mapped;
          if ((parent_pte.flags & kPteShared) != 0) {
            // MAP_SHARED window: the child maps the same frames writable — POSIX keeps shared
            // mappings shared across fork; no CoW, no relocation (the window holds no tags).
            machine.frames().AddRef(parent_pte.frame);
            return parent_pte;
          }
          if (proactive) {
            auto copied = CopyAndRelocate(kernel, parent_pte.frame, child.base, child.size,
                                          &eager_reloc, &eager_memo);
            if (!copied.ok()) {
              copy_failed = copied.error();
              return std::nullopt;
            }
            ++stats.pages_copied_eagerly;
            stats.bytes_copied_eagerly += kPageSize;
            return Pte{*copied, seg_flags};
          }
          if (strategy == ForkStrategy::kCoa) {
            // CoA shares pages *inaccessible* on the child side; clearing the parent's access
            // bits one at a time (instead of CoPA's batched write-protect) costs slightly more.
            swept += costs.coa_parent_clear;
          }
          machine.frames().AddRef(parent_pte.frame);
          // Write-protect the parent's writable pages so its writes also break the share
          // (Fig. 2 ⓐ).
          if ((parent_pte.flags & kPteWrite) != 0) {
            if (!demoted.empty() && demoted.back().hi == parent_va &&
                demoted.back().flags == parent_pte.flags) {
              demoted.back().hi += kPageSize;
            } else {
              demoted.push_back({parent_va, parent_va + kPageSize, parent_pte.flags});
            }
            parent_pte.flags = (parent_pte.flags & ~kPteWrite) | kPteCow;
          }
          return Pte{parent_pte.frame, child_flags};
        });
    off = run_end;
  }
  machine.Charge(swept);
  if (copy_failed) {
    // Full mid-fork rollback: release the half-built child (its shared mappings drop their
    // extra frame references) and drop the shell — a lingering one would be a permanently
    // running ghost child that hangs the parent's wait(). Then restore every parent PTE the
    // sweep demoted: the parent must look exactly as before the fork, or it would take
    // spurious resolvable faults on pages that have no sharer.
    kernel.DestroyUprocShell(child);
    for (const DemotedRun& run : demoted) {
      pt.ForEachMapped(run.lo, run.hi, [&run](uint64_t, Pte& pte) { pte.flags = run.flags; });
    }
    return *copy_failed;
  }
  stats.caps_relocated_eagerly = eager_reloc.relocated;

  // 2. Post-copy phase (§3.5 step 2): registers relocated via their tags; the kernel
  //    resources follow in StartForkChild (the PID was assigned with the shell).
  child.regs = parent.regs;
  const RelocationResult reg_reloc =
      RelocateRegisterFile(child.regs, parent.base, parent.size, child.base);
  machine.Charge(costs.cap_relocate * (reg_reloc.relocated + 3));
  stats.registers_relocated = reg_reloc.relocated;
  if (kernel.policy().confine_caps) {
    UF_CHECK_MSG(!child.regs.ddc.EscapesRegion(child.base, child.base + child.size),
                 "child DDC must be confined to the child region");
  } else {
    // Isolation disabled (R4): the ambient DDC spans the whole user area and must stay that
    // way — the relocation pass would otherwise clamp it whenever its base happens to
    // coincide with the parent's region.
    child.regs.ddc = parent.regs.ddc;
  }
  return kernel.StartForkChild(parent, child, stats, std::move(entry));
}

Result<void> UforkBackend::ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt,
                                        Pte& pte, const PageFaultInfo& info) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  if ((pte.flags & (kPteCow | kPteLoadCapFault)) == 0) {
    return Error{Code::kFaultPageProt, "fault on a non-shared page"};
  }

  const uint32_t limit = FaultAroundBegin(kernel, owner, info);
  FaultWindow window = FaultAroundScan(kernel, owner, pt, info, pte, limit);

  // The trap itself (costs.page_fault) was charged by the access engine before dispatching
  // here; fault_cycles attributes it to the storm together with the resolution charges.
  Cycles resolved_cycles = costs.page_fault;
  auto charge = [&](Cycles cycles) {
    machine.Charge(cycles);
    resolved_cycles += cycles;
  };

  KernelStats& stats = kernel.stats();
  RelocationResult reloc;
  RegionMemo memo;  // source-interval cache shared across the window's relocation scans
  if (window.shared) {
    // Copy + relocate each window page, then repoint the mappings (Fig. 2: the copying
    // μprocess gets the fresh frames; the other sharer keeps the originals and resolves
    // lazily on its own faults).
    std::array<FrameId, kMaxFaultAroundWindow> fresh;
    if (!machine.frames().AllocateForCopy(std::span(fresh.data(), window.pages)).ok()) {
      // Physical memory cannot cover the batch: fall back to the faulting page alone (the
      // single-page allocation failing is the pre-fault-around failure mode).
      window.pages = 1;
      UF_RETURN_IF_ERROR(machine.frames().AllocateForCopy(std::span(fresh.data(), 1)));
    }
    std::array<FrameId, kMaxFaultAroundWindow> old;
    for (uint64_t i = 0; i < window.pages; ++i) {
      Pte* page = pt.LookupMutable(info.va + i * kPageSize);
      charge(costs.frame_alloc + costs.page_copy + costs.page_tag_scan);
      machine.frames().CopyFrame(fresh[i], page->frame);
      const RelocationResult page_reloc = RelocateFrameInto(
          machine.frames(), fresh[i], kernel.address_space(), owner.base, owner.size, &memo);
      charge(costs.cap_relocate * page_reloc.relocated);
      reloc.tags_seen += page_reloc.tags_seen;
      reloc.relocated += page_reloc.relocated;
      reloc.stripped += page_reloc.stripped;
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
    // Last sharer: reclaim the pages in place. Relocation is still required if a frame holds
    // stale capabilities (e.g. the partner copied first and this is the child's original view).
    for (uint64_t i = 0; i < window.pages; ++i) {
      Pte* page = pt.LookupMutable(info.va + i * kPageSize);
      charge(costs.page_tag_scan);
      const RelocationResult page_reloc = RelocateFrameInto(
          machine.frames(), page->frame, kernel.address_space(), owner.base, owner.size, &memo);
      charge(costs.cap_relocate * page_reloc.relocated);
      reloc.tags_seen += page_reloc.tags_seen;
      reloc.relocated += page_reloc.relocated;
      reloc.stripped += page_reloc.stripped;
    }
    charge(window.pages == 1 ? costs.pte_update : costs.pte_update_batched);
    pt.SetFlagsRange(info.va, window.pages, window.seg_flags,
                     /*extra_flags_after_first=*/kPteFaultAround);
    stats.pages_reclaimed_in_place += window.pages;
  }
  stats.caps_relocated_on_fault += reloc.relocated;
  stats.caps_stripped += reloc.stripped;
  stats.fault_cycles += resolved_cycles;
  FaultAroundCommit(kernel, owner, window);
  return OkResult();
}

}  // namespace ufork
