// Fork backend interface: the axis along which the paper's three systems differ.
//
//   * μFork (src/ufork)           — single address space, capability relocation, CoPA/CoA/Full.
//   * MAS baseline (src/baseline) — CheriBSD-like: per-process page tables, classic CoW,
//                                   trap-based syscalls, TLB flushes on context switch.
//   * VM-clone baseline           — Nephele-like: hypervisor clones the whole unikernel.
//
// The kernel delegates to the installed backend: fork's base charge, memory sweep and register
// handling; the resolution of faults on present pages; syscall entry flavour; whether kernel
// sections take a big kernel lock; context switch pricing; and residency accounting.
// Everything else is shared, so workloads compare apples to apples: the fork child's shell and
// inherited state (KernelCore::CreateUproc, StartForkChild), the fault's owner lookup and
// demand fills, μprocess state, fds, VFS, pipes and scheduling.
#ifndef UFORK_SRC_KERNEL_FORK_BACKEND_H_
#define UFORK_SRC_KERNEL_FORK_BACKEND_H_

#include <functional>
#include <memory>

#include "src/base/status.h"
#include "src/kernel/uproc.h"
#include "src/machine/cost_model.h"
#include "src/machine/machine.h"
#include "src/sched/task.h"

namespace ufork {

class Kernel;
class KernelCore;

// Entry point of a μprocess thread. The guest layer adapts application coroutines
// (taking a Guest facade) into this shape.
using UprocEntry = std::function<SimTask<void>(Kernel&, Uproc&)>;

// How fork materialises the child's memory (paper §3.8).
enum class ForkStrategy {
  kCopa,       // Copy-on-Pointer-Access: share read-only; copy on write or tagged cap load
  kCoa,        // Copy-on-Access: share inaccessible; copy on any access
  kFull,       // copy everything synchronously at fork
  kUnsafeCow,  // classic CoW without relocation faults — ISOLATION-UNSOUND in a SAS; kept to
               // demonstrate why CoPA exists (a child can read stale parent capabilities)
};

const char* ForkStrategyName(ForkStrategy strategy);

class ForkBackend {
 public:
  virtual ~ForkBackend() = default;

  virtual const char* name() const = 0;

  virtual SyscallEntryKind syscall_kind() const = 0;

  // Whether each process owns a private page table (MAS/VM backends) instead of a slice of
  // the shared single-address-space table.
  virtual bool private_page_tables() const = 0;

  // Whether kernel sections serialize on one big kernel lock, Unikraft's SMP mode (§4.5).
  virtual bool big_kernel_lock() const = 0;

  // Additional cost when a core switches between these two threads (the kernel wires this into
  // the scheduler; uprocs may be null for kernel/idle threads).
  virtual Cycles ContextSwitchCost(const CostModel& costs, Uproc* prev, Uproc* next) const = 0;

  // Creates the child and returns its pid: charges the backend's fork cost, builds the child
  // with KernelCore::CreateUproc, sweeps the parent's memory into it (rolling back on
  // failure), sets its registers and hands it to KernelCore::StartForkChild. Backends see only
  // the KernelCore layer — process construction, machine, frames — never the syscall services.
  virtual Result<Pid> Fork(KernelCore& kernel, Uproc& parent, UprocEntry entry) = 0;

  // Resolves a fault on the present page `pte` of `owner`'s page table `pt` (a CoW or
  // capability-load fault). The kernel has already found the owner and filled demand
  // reservations.
  virtual Result<void> ResolveFault(KernelCore& kernel, Uproc& owner, PageTable& pt, Pte& pte,
                                    const PageFaultInfo& info) = 0;

  // Residency the PSS metric must add beyond frames mapped in the region (shared libraries,
  // guest-OS image, allocator dirtying — see DESIGN.md substitutions).
  virtual uint64_t ExtraResidencyBytes(const KernelCore& kernel, const Uproc& uproc) const = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_FORK_BACKEND_H_
