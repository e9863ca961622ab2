#include "src/baseline/mas_backend.h"

#include "src/guest/tinyalloc.h"
#include "src/kernel/fault_around.h"

#include <optional>
#include <span>

namespace ufork {

Result<Pid> MasBackend::Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  machine.Charge(costs.fork_base_mas);

  UF_ASSIGN_OR_RETURN(Uproc* const created, kernel.CreateUproc(parent.name + "+", parent.pid()));
  Uproc& child = *created;

  ForkStats stats;
  PageTable& parent_pt = *parent.page_table;
  PageTable& child_pt = *child.page_table;
  Cycles swept = 0;  // per-page charges, summed: nothing in the sweep reads Now()
  parent_pt.CloneRange(
      child_pt, parent.base, child.base, parent.size,
      [&](uint64_t, Pte& pte) -> std::optional<Pte> {
        // Classic CoW (§3.8): identical virtual addresses, shared frames; only writable pages
        // need the CoW break, read-only segments are shared for good. Building a fresh
        // page-table hierarchy plus vm_map/pv bookkeeping is what makes the MAS fork per-page
        // cost higher than μFork's batched PTE copy within one table.
        swept += costs.pte_dup + costs.mas_page_extra;
        if (!PtePopulated(pte)) {
          // Demand reservation: the child inherits the lazy state verbatim — there is no
          // frame to share, copy, or CoW-protect; each side fills privately on first touch.
          ++stats.pages_reserved;
          return pte;
        }
        machine.frames().AddRef(pte.frame);
        if ((pte.flags & (kPteShared | kPteWrite)) == kPteWrite) {
          pte.flags = (pte.flags & ~kPteWrite) | kPteCow;  // both sides break on write
        }
        ++stats.pages_mapped;
        return pte;  // MAP_SHARED and read-only pages are shared as they are
      });
  machine.Charge(swept + costs.pt_node_alloc * child_pt.node_count());
  // Same virtual layout: registers (and every capability in memory) stay valid verbatim.
  child.regs = parent.regs;
  return kernel.StartForkChild(parent, child, stats, std::move(entry));
}

Result<void> MasBackend::ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt, Pte& pte,
                                      const PageFaultInfo& info) {
  if ((pte.flags & kPteCow) == 0 || !info.is_write) {
    return Error{Code::kFaultPageProt, "unresolvable page fault"};
  }
  return ResolveCowWriteWindow(kernel, owner, pt, info, pte);
}

uint64_t MasBackend::ExtraResidencyBytes(const KernelCore& kernel, const Uproc& uproc) const {
  uint64_t extra = params_.shared_lib_bytes;
  if (params_.allocator_dirty_fraction > 0.0 && uproc.page_table != nullptr) {
    // jemalloc metadata walks and junk-filling dirty pages in proportion to the heap the
    // application actually uses; read the live figure from the guest allocator's root page
    // (layout documented in tinyalloc.h).
    const uint64_t heap_root = uproc.base + kernel.layout().heap_off();
    const std::optional<Pte> pte = uproc.page_table->Lookup(heap_root);
    if (pte.has_value() && PtePopulated(*pte)) {
      uint64_t in_use = 0;
      kernel.machine().frames().frame(pte->frame).Read(
          tinyalloc::kRootBytesInUseOffset,
          std::as_writable_bytes(std::span(&in_use, 1)));
      extra += static_cast<uint64_t>(params_.allocator_dirty_fraction *
                                     static_cast<double>(in_use));
    }
  }
  return extra;
}

}  // namespace ufork
