#include "src/baseline/vmclone_backend.h"

#include <optional>

#include "src/kernel/fault_around.h"

namespace ufork {

Result<Pid> VmCloneBackend::Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) {
  Machine& machine = kernel.machine();
  const CostModel& costs = kernel.costs();
  // Creating a Xen domain: hypercalls, domain structures, console/xenstore wiring. This fixed
  // cost dominates (Fig. 8: 10.7 ms vs μFork's 54 μs).
  machine.Charge(costs.vmclone_domain_create + costs.hypercall);

  UF_ASSIGN_OR_RETURN(Uproc* const created, kernel.CreateUproc(parent.name + "+", parent.pid()));
  Uproc& child = *created;

  ForkStats stats;
  PageTable& parent_pt = *parent.page_table;
  PageTable& child_pt = *child.page_table;
  Cycles swept = 0;  // per-page charges, summed: nothing in the sweep reads Now()
  std::optional<Error> copy_failed;
  parent_pt.CloneRange(
      child_pt, parent.base, child.base, parent.size,
      [&](uint64_t, Pte& pte) -> std::optional<Pte> {
        if (!PtePopulated(pte)) {
          // Demand reservation: nothing to copy yet — the clone inherits the lazy state and
          // fills its own frame on first touch.
          swept += costs.pte_dup;
          ++stats.pages_mapped;
          ++stats.pages_reserved;
          return pte;
        }
        // Full synchronous copy of the guest image — no sharing across domains.
        auto frame = machine.frames().AllocateForCopy();
        if (!frame.ok()) {
          copy_failed = frame.error();
          return std::nullopt;
        }
        swept += costs.frame_alloc + costs.page_copy + costs.pte_dup;
        machine.frames().CopyFrame(*frame, pte.frame);
        ++stats.pages_mapped;
        ++stats.pages_copied_eagerly;
        stats.bytes_copied_eagerly += kPageSize;
        return Pte{*frame, pte.flags};
      });
  machine.Charge(swept);
  if (copy_failed) {
    // Undo the half-built child completely (see UforkBackend::Fork): a leftover shell would
    // be a permanently-running ghost child that hangs the parent's wait().
    kernel.DestroyUprocShell(child);
    return *copy_failed;
  }
  machine.Charge(costs.pt_node_alloc * child_pt.node_count());
  child.regs = parent.regs;  // same virtual layout: registers stay valid verbatim
  return kernel.StartForkChild(parent, child, stats, std::move(entry));
}

Result<void> VmCloneBackend::ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt,
                                          Pte& pte, const PageFaultInfo& info) {
  if ((pte.flags & kPteCow) != 0 && info.is_write) {
    // The only CoW in a clone's table comes from MmapFile cache pages (fork copies
    // everything eagerly); break it with the classic copy-out.
    return ResolveCowWriteWindow(kernel, owner, pt, info, pte);
  }
  // Clones never share memory across domains: any other resolvable-looking fault is a bug.
  return Error{Code::kFaultPageProt, "VM clones share no memory"};
}

}  // namespace ufork
