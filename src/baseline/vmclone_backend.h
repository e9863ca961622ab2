// VM-clone baseline: a Nephele-like "OS as a process" fork (paper §2.3).
//
// The SASOS runs under a hypervisor which implements fork by cloning the entire guest VM:
// creating a new domain (the dominating cost — the paper measures 10.7 ms per fork) and
// copying the whole guest physical image. No relocation is needed (each clone is its own
// address space) but lightweightness is lost: multiple address spaces return, every clone
// carries the full OS image, and cross-"process" switches pay VM-switch costs.
#ifndef UFORK_SRC_BASELINE_VMCLONE_BACKEND_H_
#define UFORK_SRC_BASELINE_VMCLONE_BACKEND_H_

#include "src/kernel/fork_backend.h"
#include "src/kernel/kernel_core.h"

namespace ufork {

struct VmCloneParams {
  // Residency added per clone for the guest OS image + hypervisor metadata (Fig. 8: 1.6 MB per
  // hello-world process vs 0.13 MB on μFork).
  uint64_t vm_image_bytes = 304 * kKiB;
};

class VmCloneBackend : public ForkBackend {
 public:
  explicit VmCloneBackend(const VmCloneParams& params) : params_(params) {}

  const char* name() const override { return "Nephele-VMClone"; }
  // Inside the unikernel guest, syscalls are function calls; the hypervisor is only involved
  // in fork and VM switches.
  SyscallEntryKind syscall_kind() const override { return SyscallEntryKind::kSealedEntry; }
  bool private_page_tables() const override { return true; }
  bool big_kernel_lock() const override { return true; }  // the guest is a Unikraft kernel

  Cycles ContextSwitchCost(const CostModel& costs, Uproc* prev, Uproc* next) const override {
    Cycles cost = costs.context_switch;
    if (next != nullptr && next != prev) {
      cost += costs.tlb_flush + costs.hypercall;  // world switch between domains
    }
    return cost;
  }

  Result<Pid> Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) override;

  // Clones never share memory across domains, so the only resolvable faults on present pages
  // are CoW breaks against the host's page cache (MmapFile); anything else is a bug.
  Result<void> ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt, Pte& pte,
                            const PageFaultInfo& info) override;

  uint64_t ExtraResidencyBytes(const KernelCore& kernel, const Uproc& uproc) const override {
    (void)kernel, (void)uproc;
    return params_.vm_image_bytes;
  }

 private:
  VmCloneParams params_;
};

}  // namespace ufork

#endif  // UFORK_SRC_BASELINE_VMCLONE_BACKEND_H_
