// The μFork backend: true single-address-space fork (paper §3.5, §4.2).
//
// Fork walks the parent's region and, per the configured strategy:
//   * CoPA — shares pages read-only with the load-cap-fault attribute on the child side; a
//     write by either side, or a tagged capability load by the child, copies the page and
//     relocates the capabilities it contains.
//   * CoA  — shares pages with no access on the child side; any child access copies.
//   * Full — copies and relocates everything synchronously at fork.
//   * UnsafeCoW — classic CoW without capability-load faults; intentionally unsound in a SAS
//     (the child can observe stale parent capabilities) and kept only to demonstrate why CoPA
//     exists. Do not use outside experiments.
//
// GOT pages and the allocator metadata page are proactively copied and relocated in all
// strategies (§3.5 step 1), as are the registers (step 2).
#ifndef UFORK_SRC_UFORK_UFORK_BACKEND_H_
#define UFORK_SRC_UFORK_UFORK_BACKEND_H_

#include "src/kernel/fork_backend.h"
#include "src/kernel/kernel_core.h"
#include "src/ufork/relocate.h"

namespace ufork {

class UforkBackend : public ForkBackend {
 public:
  const char* name() const override { return "uFork"; }
  SyscallEntryKind syscall_kind() const override { return SyscallEntryKind::kSealedEntry; }
  bool private_page_tables() const override { return false; }
  bool big_kernel_lock() const override { return true; }  // μFork runs on Unikraft (§4.5)

  Cycles ContextSwitchCost(const CostModel& costs, Uproc* prev, Uproc* next) const override {
    (void)prev, (void)next;
    // Same address space: no page-table switch, no TLB flush (§2.2).
    return costs.context_switch;
  }

  Result<Pid> Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) override;
  Result<void> ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt, Pte& pte,
                            const PageFaultInfo& info) override;

  uint64_t ExtraResidencyBytes(const KernelCore& kernel, const Uproc& uproc) const override {
    (void)kernel, (void)uproc;
    // Kernel-side per-μprocess structures: thread stack, task struct, descriptor table and
    // the duplicated PTE ranges (Fig. 8 counts these in the 0.13 MB/process).
    return 112 * kKiB;
  }

 private:
  // Copies `src_frame` into a fresh frame, relocates its capabilities into the target region
  // and returns the new frame. Charges copy + scan + relocation costs. `memo` carries the
  // relocation source-interval cache across a multi-page sweep.
  Result<FrameId> CopyAndRelocate(KernelCore& kernel, FrameId src_frame, uint64_t region_lo,
                                  uint64_t region_size, RelocationResult* out,
                                  RegionMemo* memo = nullptr);
};

}  // namespace ufork

#endif  // UFORK_SRC_UFORK_UFORK_BACKEND_H_
