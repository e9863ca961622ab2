// KernelCore: the machine-facing core the fork backends program against.
//
// The core owns what every subsystem shares — scheduler, machine, address space, the shared
// page table, the process table, the kernel lock and the kernel counters — plus μprocess
// construction/teardown and the fork and fault steps every backend shares. It deliberately
// exposes no syscalls: those live in the per-subsystem services (ProcService, FileService,
// IpcService) layered on top by Kernel (kernel.h). Fork backends receive a KernelCore&, so a
// backend cannot reach into VFS or IPC state.
#ifndef UFORK_SRC_KERNEL_KERNEL_CORE_H_
#define UFORK_SRC_KERNEL_KERNEL_CORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/kernel/admission.h"
#include "src/kernel/compaction_service.h"
#include "src/kernel/fd.h"
#include "src/kernel/fork_backend.h"
#include "src/kernel/isolation.h"
#include "src/kernel/syscall_table.h"
#include "src/kernel/uproc.h"
#include "src/machine/machine.h"
#include "src/mem/address_space.h"
#include "src/mem/layout.h"
#include "src/sched/scheduler.h"
#include "src/sched/sync.h"

namespace ufork {

class Kernel;
class PageCache;

// Fault-around: batched CoW/CoPA fault resolution (DESIGN.md §4.8). One trap resolves a
// window of adjacent pages in the same pending state; `pte_update_batched` replaces the
// per-page `pte_update` for multi-page windows. Default max_window=1 keeps resolution
// page-at-a-time and bit-identical to the pre-fault-around kernel.
struct FaultAroundConfig {
  uint32_t max_window = 1;  // upper bound on the window, clamped to kMaxFaultAroundWindow
  // Grow/shrink the per-μprocess window from observed locality. When false, every window uses
  // max_window directly (still clipped by access span, segment and state boundaries).
  bool adaptive = true;
};

inline constexpr uint32_t kMaxFaultAroundWindow = 16;

// Demand paging: pages left entirely unmapped at the bottom of the stack segment. A touch
// there has no PTE to fill — unresolvable fault → SIGSEGV — containing runaway stack growth
// exactly at the segment's floor (DESIGN.md §4.12).
inline constexpr uint64_t kStackGuardPages = 1;

struct KernelConfig {
  int cores = 4;  // Morello SDP has 4 ARMv8.2-A cores
  ForkStrategy strategy = ForkStrategy::kCopa;
  IsolationLevel isolation = IsolationLevel::kFull;
  LayoutConfig layout;
  uint64_t phys_mem_bytes = 2 * kGiB;
  std::optional<uint64_t> aslr_seed;
  FaultAroundConfig fault_around;
  // Cross-check FrameAllocator refcounts against the sum of PTE mappings plus kernel-held
  // frame references after every syscall (SyscallScope exit). Debug aid: O(mapped pages) per
  // syscall, so off by default.
  bool check_frame_invariants = false;
  // Demand paging + unified page cache (DESIGN.md §4.12). When on, heap/stack/TLS are
  // reserved as frame-less kPteNotPresent PTEs populated on first touch (zero-fill or
  // page-cache read-through), the lowest stack page becomes an unmapped guard gap, fork
  // duplicates reservations without frames, and mmap placement uses the free-VA scan.
  // Admission watermarks, tenant caps and check_frame_invariants all bill at population
  // time automatically — frames simply don't exist earlier. Default off: eager population,
  // golden-cycle bit-identical.
  bool demand_paging = false;
  // Incremental concurrent compaction (DESIGN.md §4.13). 0 (default) disables the background
  // service entirely — CompactAddressSpace remains the stop-the-world special case and every
  // golden pin stays bit-identical. >0 bounds the pages relocated per service quantum.
  uint64_t compact_budget_pages = 0;
  Cycles compact_step_interval = 5'000;  // virtual gap between quanta (mutators run here)
  // Park freed and moved-from regions in the AddressSpace quarantine until the revocation
  // sweep has cleared every capability bounded inside them (Cornucopia-style). Off: freed
  // ranges return to the free list immediately, as the historical kernel did.
  bool quarantine_freed_regions = false;
  CompactionTriggerConfig compact_trigger;
  CostModel costs;
};

struct WaitResult {
  Pid pid = kInvalidPid;
  int status = 0;
};

// Aggregated kernel counters surfaced by benchmarks and tests.
struct KernelStats {
  uint64_t forks = 0;
  uint64_t exits = 0;
  uint64_t syscalls = 0;
  uint64_t pages_copied_on_fault = 0;
  uint64_t caps_relocated_on_fault = 0;
  uint64_t caps_stripped = 0;  // out-of-region capabilities invalidated during relocation
  uint64_t tocttou_copies = 0;
  // Fault-around accounting (DESIGN.md §4.8). Page-accounting invariant across backends:
  //   faults_taken + pages_resolved_by_faultaround == pages_copied_on_fault +
  //   pages_reclaimed_in_place.
  uint64_t faults_taken = 0;                   // resolvable traps actually serviced
  uint64_t pages_resolved_by_faultaround = 0;  // extra pages resolved beyond the faulting one
  uint64_t pages_reclaimed_in_place = 0;       // last-sharer pages reclaimed without a copy
  uint64_t speculative_pages_wasted = 0;       // fault-around pages never touched afterwards
  uint64_t fault_cycles = 0;                   // virtual cycles spent in resolvable-fault
                                               // handling (incl. the page_fault trap cost)
  uint64_t regions_tombstoned = 0;  // regions kept reserved at exit (shared frames remain)
  // Demand paging (DESIGN.md §4.12). Zero unless KernelConfig::demand_paging (or MmapFile /
  // Sbrk, which exercise the page cache and lazy zones in any configuration).
  uint64_t pages_demand_filled = 0;  // reservations populated by the fault path
  // Overload control (DESIGN.md §4.10). All zero unless OverloadConfig::enabled.
  uint64_t admission_trips = 0;     // ADMITTING -> REJECTING transitions (low watermark hit)
  uint64_t admission_rejected = 0;  // fork/spawn refused with EAGAIN
  // Incremental compaction + revocation (DESIGN.md §4.13). Zero unless compact_budget_pages>0
  // or a quarantine sweep ran. pause_cycles_max covers the stop-the-world path too, so the
  // frag-gate can compare STW pause against the incremental per-quantum maximum.
  uint64_t compact_steps = 0;          // service quanta that moved pages or swept frames
  uint64_t compact_regions_moved = 0;  // moves committed by the background service
  uint64_t compact_parked = 0;         // syscalls parked on the mid-move barrier
  uint64_t pause_cycles_max = 0;       // longest mutator-excluding pause (one quantum, or the
                                       // whole pass for stop-the-world compaction)
  uint64_t quarantined_bytes = 0;      // cumulative bytes that entered quarantine
  uint64_t caps_revoked = 0;           // capabilities untagged by the revocation sweep
  // Crash containment (§4.9, DESIGN.md §4.14): unresolvable capability/translation faults
  // delivered as SIGSEGV to the faulting μprocess — never a host abort. The attack battery
  // asserts this count moves in lockstep with contained-crash exit statuses.
  uint64_t faults_contained = 0;
  // Kernel entries per syscall id, indexed by Sys and incremented by SyscallScope::Enter.
  // Σ per_syscall == syscalls (delivery points such as check_signals enter no kernel section
  // and count in neither).
  std::array<uint64_t, kNumSyscalls> per_syscall{};

  uint64_t& Count(Sys id) { return per_syscall[static_cast<size_t>(id)]; }
  uint64_t Count(Sys id) const { return per_syscall[static_cast<size_t>(id)]; }
};

class KernelCore {
 public:
  KernelCore(const KernelCore&) = delete;
  KernelCore& operator=(const KernelCore&) = delete;

  // --- boot / run -----------------------------------------------------------------------------

  // Creates a fresh μprocess running `entry` (a new program image, not a fork).
  Result<Pid> Spawn(UprocEntry entry, std::string name, int pinned_core = -1);

  // Drains the scheduler.
  void Run() { sched_.Run(); }

  // --- component access -----------------------------------------------------------------------

  Scheduler& sched() { return sched_; }
  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  AddressSpace& address_space() { return address_space_; }
  const UprocLayout& layout() const { return layout_; }
  const IsolationPolicy& policy() const { return policy_; }
  const KernelConfig& config() const { return config_; }
  const CostModel& costs() const { return machine_.costs(); }
  ForkBackend& backend() { return *backend_; }
  KernelStats& stats() { return stats_; }

  // Deterministic fault-injection registry (DESIGN.md §4.9). Wired into the frame allocator
  // and the region allocator at construction; IPC/VFS sites are wired by Kernel.
  FaultInjector& fault_injector() { return fault_injector_; }

  // Overload control (DESIGN.md §4.10): watermark hysteresis and EAGAIN rejection, consulted
  // by ProcService::Fork/Spawn. Disabled until armed with admission().Configure().
  AdmissionController& admission() { return admission_; }

  // Incremental background compaction + revocation sweeping (DESIGN.md §4.13). Inert unless
  // a backend engine is installed and compact_budget_pages > 0.
  CompactionService& compaction() { return *compaction_; }
  const CompactionService& compaction() const { return *compaction_; }

  // VFS-unified page cache (DESIGN.md §4.12): refcounted frames keyed by (inode, page),
  // read-through filled from ramdisk inodes, shared clean into MmapFile mappings.
  PageCache& page_cache() { return *page_cache_; }
  const PageCache& page_cache() const { return *page_cache_; }

  // Demand-paging footprint metrics. Resident = frames actually allocated; reserved = VA
  // mapped as frame-less kPteNotPresent reservations across every page table.
  uint64_t ResidentFrames() const { return machine_.frames().frames_in_use(); }
  uint64_t ReservedBytes() const;

  // --- frame-accounting invariant (DESIGN.md §4.9) --------------------------------------------

  // Enumerates frame references the kernel holds outside any page table (e.g. shm objects).
  // The registered provider calls its argument once per held reference.
  using KernelFrameRefsProvider = std::function<void(const std::function<void(FrameId)>&)>;
  void set_kernel_frame_refs_provider(KernelFrameRefsProvider provider) {
    kernel_frame_refs_ = std::move(provider);
  }

  // Verifies that every live frame's refcount equals the number of PTEs mapping it (across the
  // shared page table and all private page tables) plus kernel-held references, and that
  // frames_in_use matches the live-slot count. Returns the first mismatch as an error.
  Result<void> CheckFrameAccounting() const;
  void CheckFrameAccountingOrDie() const;

  // The big kernel lock every kernel section takes, or nullptr when the backend runs kernel
  // sections lock-free (ForkBackend::big_kernel_lock).
  VirtualLock* kernel_lock() { return kernel_lock_.get(); }

  // Wakeup latency for threads blocked on IPC objects: on SMP this is a cross-core IPI plus
  // remote scheduler entry; on a single core it is just a run-queue insertion.
  Cycles BlockingWakeCycles() const {
    return config_.cores > 1 ? config_.costs.blocking_wake : config_.costs.sched_wakeup;
  }

  Uproc* FindUproc(Pid pid);
  // SAS: μprocess whose region contains `va` (used by fault resolution and relocation).
  Uproc* UprocByAddress(uint64_t va);
  Uproc* UprocByPageTable(const PageTable* pt);
  Uproc& CurrentUproc();
  std::vector<Pid> LivePids() const;
  std::vector<Pid> AllPids() const;

  // The shared page table of the single address space (μFork backend).
  PageTable& shared_page_table() { return shared_pt_; }

  // PTE flags a region offset should have when privately owned (segment permissions).
  uint32_t SegmentFlagsAt(uint64_t offset) const;

  // --- μprocess construction (used by fork backends and Spawn) --------------------------------

  // Builds a μprocess shell (pid, empty fd table, cleared registers) under `parent` and
  // allocates its memory: a SAS region, or the fixed MAS base in a private page table when the
  // backend wants one. Undoes the shell if the allocation fails.
  Result<Uproc*> CreateUproc(std::string name, Pid parent);
  // CreateUproc plus a freshly mapped image and its architectural capabilities: a new program
  // (spawn), not a fork. Undoes everything if mapping fails.
  Result<Uproc*> CreateFreshUproc(std::string name, Pid parent);
  // Eagerly maps all segments with fresh zero frames.
  Result<void> MapFreshImage(Uproc& uproc);
  // Derives the architectural capabilities (DDC/PCC/CSP + syscall sentry) for the region.
  void InstallArchCaps(Uproc& uproc);
  // Spawns the μprocess thread executing `entry`.
  void StartUprocThread(Uproc& uproc, UprocEntry entry, int pinned_core = -1);
  // Fork's shared epilogue, after the backend swept memory and set the registers: copies what
  // the child inherits besides those (descriptors, charging fd_dup each; the mmap cursor, heap
  // break and file mappings, rebased to the child's region; the sealed entry, signal state and
  // affinity), records `stats` and starts the child's thread. Returns the child's pid.
  Pid StartForkChild(Uproc& parent, Uproc& child, const ForkStats& stats, UprocEntry entry);

  // Releases all frames mapped in the μprocess region and the region itself.
  void ReleaseUprocMemory(Uproc& uproc);
  // Unmaps the whole image — exit and exec share this — charging `per_page` for each in-use
  // slot before releasing its frame (reservations hold none), and drops the file mappings and
  // fault-around spans that named those pages. Returns whether a released frame is still
  // live, i.e. shared with a fork partner.
  bool UnmapUprocImage(Uproc& uproc, Cycles per_page);

  // Re-keys the SAS region-base index after compaction moves a region. Without this the index
  // entry stays keyed at the old base: UprocByAddress would resolve stale addresses to the
  // moved μprocess and miss its new range until teardown.
  void RebaseRegionIndex(uint64_t old_base, uint64_t new_base, Pid pid);

  // Undoes CreateUproc on a construction-failure path: releases whatever memory the μprocess
  // got, then removes the shell from the process table and the parent's child list. Without
  // this, a failed fork/spawn leaves a permanently kRunning ghost child that makes the
  // parent's wait() block forever instead of ECHILD.
  void DestroyUprocShell(Uproc& uproc);

  // Drops a reaped (kDead) μprocess from the process table (ProcService::ReapZombie).
  void EraseUproc(Pid pid);

  // --- user-memory access ---------------------------------------------------------------------

  // Validates a user buffer per the isolation policy; returns the (possibly narrowed)
  // authorization to use.
  Result<void> ValidateUserBuffer(Uproc& caller, const Capability& cap, uint64_t va,
                                  uint64_t len, bool is_write);

  // Transfers between user memory (through `cap`, honouring CoW/CoPA) and a kernel buffer,
  // with TOCTTOU double copy when the policy demands it.
  SimTask<Result<void>> CopyFromUser(Uproc& caller, const Capability& cap, uint64_t va,
                                     std::span<std::byte> out);
  SimTask<Result<void>> CopyToUser(Uproc& caller, const Capability& cap, uint64_t va,
                                   std::span<const std::byte> in);

  // --- metrics --------------------------------------------------------------------------------

  // Proportional set size: Σ page_size / frame_refcount over the region. Shared pages are
  // split among sharers.
  uint64_t UprocPssBytes(const Uproc& uproc) const;

  // Unique set size: only privately-owned frames, plus the backend's per-process overhead
  // (shared libraries, VM image, allocator dirtying, kernel structures). This is "the memory
  // consumed by a (forked) process" the paper's Figures 5 and 8 report: what the fork *added*.
  uint64_t UprocUssBytes(const Uproc& uproc) const;
  double UprocUssMb(const Uproc& uproc) const {
    return static_cast<double>(UprocUssBytes(uproc)) / static_cast<double>(kMiB);
  }

 protected:
  KernelCore(const KernelConfig& config, std::unique_ptr<ForkBackend> backend);
  ~KernelCore();

  // The concrete Kernel layered on this core (KernelCore is only ever a Kernel base). Used to
  // hand the full syscall surface to μprocess entry functions.
  Kernel& AsKernel();

  // The machine's fault resolver: finds the faulting μprocess, bills its tenant, fills demand
  // reservations and hands faults on present pages to the backend.
  Result<void> ResolveFault(const PageFaultInfo& info);

  KernelConfig config_;
  IsolationPolicy policy_;
  UprocLayout layout_;
  Scheduler sched_;
  Machine machine_;
  AddressSpace address_space_;
  PageTable shared_pt_;
  std::unique_ptr<ForkBackend> backend_;
  std::unique_ptr<VirtualLock> kernel_lock_;  // null: lock-free kernel sections

  std::map<Pid, std::unique_ptr<Uproc>> uprocs_;
  std::map<const PageTable*, Pid> pt_owners_;
  // SAS region-base -> pid index: makes UprocByAddress one map probe instead of a process-table
  // scan (it runs on every fault-side tenant lookup and relocation probe).
  std::map<uint64_t, Pid> region_by_base_;
  Pid next_pid_ = 1;
  KernelStats stats_;
  FaultInjector fault_injector_;
  AdmissionController admission_;
  std::unique_ptr<PageCache> page_cache_;
  std::unique_ptr<CompactionService> compaction_;
  KernelFrameRefsProvider kernel_frame_refs_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_KERNEL_CORE_H_
