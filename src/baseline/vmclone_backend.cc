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

  Uproc& child = kernel.CreateUprocShell(parent.name + "+", parent.pid());
  if (auto mem = kernel.AllocateUprocMemory(child, /*private_page_table=*/true); !mem.ok()) {
    kernel.DestroyUprocShell(child);  // no ghost child on construction failure
    return mem.error();
  }

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
        machine.frames().frame(*frame).CopyFrom(machine.frames().frame(pte.frame));
        ++stats.pages_mapped;
        ++stats.pages_copied_eagerly;
        stats.bytes_copied_eagerly += kPageSize;
        return Pte{*frame, pte.flags};
      });
  machine.Charge(swept);
  if (copy_failed) {
    // Undo the half-built child completely (see UforkBackend::Fork): a leftover shell would
    // be a permanently-running ghost child that hangs the parent's wait().
    kernel.ReleaseUprocMemory(child);
    kernel.DestroyUprocShell(child);
    return *copy_failed;
  }
  machine.Charge(costs.pt_node_alloc * child_pt.node_count());

  child.fds = parent.fds->Clone();
  machine.Charge(costs.fd_dup * static_cast<uint64_t>(child.fds->OpenCount()));
  child.mmap_cursor = parent.mmap_cursor;
  child.regs = parent.regs;
  child.syscall_sentry = parent.syscall_sentry;
  child.signals = parent.signals.ForkCopy();
  child.forked_child = true;
  child.fork_stats = stats;
  child.child_affinity = parent.child_affinity;
  kernel.StartUprocThread(child, std::move(entry), parent.child_affinity);
  return child.pid();
}

Result<void> VmCloneBackend::ResolveFault(KernelCore& kernel, const PageFaultInfo& info) {
  Uproc* uproc = kernel.UprocByPageTable(info.page_table);
  if (uproc == nullptr) {
    return Error{Code::kFaultNotMapped, "fault against an unowned page table"};
  }
  PageTable& pt = *info.page_table;
  Pte* pte = pt.LookupMutable(info.va);
  if (pte == nullptr) {
    return Error{Code::kFaultNotMapped, "fault on unmapped page"};
  }
  if ((pte->flags & kPteNotPresent) != 0) {
    return ResolveDemandFault(kernel, *uproc, pt, info, *pte);
  }
  if ((pte->flags & kPteCow) != 0 && info.is_write) {
    // The only CoW in a clone's table comes from MmapFile cache pages (fork copies
    // everything eagerly); break it with the classic copy-out.
    return ResolveCowWriteWindow(kernel, *uproc, pt, info, *pte);
  }
  // Clones never share memory across domains: any other resolvable-looking fault is a bug.
  return Error{Code::kFaultPageProt, "VM clones share no memory"};
}

void VmCloneBackend::OnExit(KernelCore& kernel, Uproc& uproc) {
  FaultAroundAccountExitWaste(kernel, uproc);
}

}  // namespace ufork
