// Multi-address-space baseline: a CheriBSD-like monolithic kernel's fork.
//
// Every process owns a private page table with an identical virtual layout, so fork duplicates
// PTEs at the *same* virtual addresses — no capability relocation is ever needed, which is
// exactly why this design cannot be a single address space. Costs differ from μFork on the
// axes the paper identifies (§5): trap-based syscalls, TLB flushes on address-space switches,
// heavier fork machinery (vmspace duplication), and larger process residency (shared
// libraries, allocator dirtying).
#ifndef UFORK_SRC_BASELINE_MAS_BACKEND_H_
#define UFORK_SRC_BASELINE_MAS_BACKEND_H_

#include "src/kernel/fork_backend.h"
#include "src/kernel/kernel_core.h"

namespace ufork {

struct MasParams {
  // Residency added per process for shared libraries / dynamic linker images (Fig. 8 shows
  // 0.29 MB vs μFork's 0.13 MB for hello world; the delta is libraries + allocator, §5.2).
  uint64_t shared_lib_bytes = 288 * kKiB;
  // Fraction of CoW-shared writable bytes the process's allocator effectively dirties over its
  // lifetime. Models CheriBSD/jemalloc behaviour the paper calls out for Fig. 5 ("higher
  // allocator memory consumption", 56 MB for the forked Redis child at a 100 MB database).
  double allocator_dirty_fraction = 0.0;
};

class MasBackend : public ForkBackend {
 public:
  explicit MasBackend(const MasParams& params) : params_(params) {}

  const char* name() const override { return "CheriBSD-MAS"; }
  SyscallEntryKind syscall_kind() const override { return SyscallEntryKind::kTrap; }
  bool private_page_tables() const override { return true; }
  // A monolithic kernel locks at fine grain; the baseline models that as lock-free kernel
  // sections, so its virtual timings carry no lock contention.
  bool big_kernel_lock() const override { return false; }

  Cycles ContextSwitchCost(const CostModel& costs, Uproc* prev, Uproc* next) const override {
    Cycles cost = costs.context_switch;
    if (next != nullptr && next != prev) {
      cost += costs.tlb_flush;  // page-table switch: the SASOS-motivating overhead (§2.2)
    }
    return cost;
  }

  Result<Pid> Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) override;
  Result<void> ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt, Pte& pte,
                            const PageFaultInfo& info) override;
  uint64_t ExtraResidencyBytes(const KernelCore& kernel, const Uproc& uproc) const override;

 private:
  MasParams params_;
};

}  // namespace ufork

#endif  // UFORK_SRC_BASELINE_MAS_BACKEND_H_
