#include "src/kernel/kernel_core.h"

#include <algorithm>

#include "src/kernel/fault_around.h"
#include "src/kernel/kernel.h"
#include "src/kernel/page_cache.h"

namespace ufork {
namespace {

// Virtual address map of the single address space:
//   [kKernelBase, kKernelTop)  kernel text/data (source of sealed syscall entries)
//   [kUserBase,   kUserTop)    μprocess regions, handed out by the AddressSpace allocator
constexpr uint64_t kKernelBase = 256 * kMiB;
constexpr uint64_t kKernelTop = 1 * kGiB;
constexpr uint64_t kUserBase = 4 * kGiB;
constexpr uint64_t kUserTop = 1ULL << 47;

// μprocess regions are aligned generously so capability-representable bounds (see
// compressed_cap.h) hold for whole-region capabilities.
constexpr uint64_t kRegionAlign = 2 * kMiB;

}  // namespace

const char* IsolationLevelName(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kNone:
      return "none";
    case IsolationLevel::kFault:
      return "fault";
    case IsolationLevel::kFull:
      return "full";
  }
  return "?";
}

const char* ForkStrategyName(ForkStrategy strategy) {
  switch (strategy) {
    case ForkStrategy::kCopa:
      return "CoPA";
    case ForkStrategy::kCoa:
      return "CoA";
    case ForkStrategy::kFull:
      return "FullCopy";
    case ForkStrategy::kUnsafeCow:
      return "UnsafeCoW";
  }
  return "?";
}

KernelCore::KernelCore(const KernelConfig& config, std::unique_ptr<ForkBackend> backend)
    : config_(config),
      policy_(IsolationPolicy::FromLevel(config.isolation)),
      layout_(config.layout),
      sched_(config.cores),
      machine_(MachineConfig{config.phys_mem_bytes / kPageSize, config.costs}),
      address_space_(kUserBase, kUserTop),
      backend_(std::move(backend)),
      admission_(machine_.frames(), stats_) {
  UF_CHECK_MSG(backend_ != nullptr, "a ForkBackend is required");
  if (backend_->big_kernel_lock()) {
    kernel_lock_ = std::make_unique<VirtualLock>(sched_);
  }
  machine_.set_cycle_sink([this](Cycles c) { sched_.Charge(c); });
  machine_.set_fault_resolver([this](const PageFaultInfo& info) { return ResolveFault(info); });
  sched_.set_context_switch_hook([this](SimThread* prev, SimThread* next) {
    Uproc* prev_proc = prev != nullptr ? static_cast<Uproc*>(prev->context()) : nullptr;
    Uproc* next_proc = next != nullptr ? static_cast<Uproc*>(next->context()) : nullptr;
    return backend_->ContextSwitchCost(costs(), prev_proc, next_proc);
  });
  if (config_.aslr_seed.has_value()) {
    address_space_.EnableAslr(*config_.aslr_seed);
  }
  machine_.frames().set_fault_injector(&fault_injector_);
  address_space_.set_fault_injector(&fault_injector_);
  page_cache_ = std::make_unique<PageCache>(machine_);
  page_cache_->set_fault_injector(&fault_injector_);
  // Last: the service's constructor installs the machine VA forwarder.
  compaction_ = std::make_unique<CompactionService>(*this);
}

KernelCore::~KernelCore() = default;

Kernel& KernelCore::AsKernel() {
  // KernelCore's constructor is protected and Kernel is its only subclass.
  return static_cast<Kernel&>(*this);
}

Result<void> KernelCore::ResolveFault(const PageFaultInfo& info) {
  Uproc* owner = backend_->private_page_tables() ? UprocByPageTable(info.page_table)
                                                 : UprocByAddress(info.va);
  if (owner == nullptr) {
    return Error{Code::kFaultNotMapped, "fault outside any μprocess"};
  }
  // Frames the resolver copies into are charged to the faulting μprocess's tenant (the
  // syscall-entry stamp may belong to a different μprocess on another core).
  if (machine_.frames().tenant_caps_active()) [[unlikely]] {
    machine_.frames().set_current_tenant(owner->tenant);
  }
  PageTable& pt = *info.page_table;
  Pte* pte = pt.LookupMutable(info.va);
  if (pte == nullptr) {
    // Guest-reachable (an access through a stale capability can fault inside an owned region
    // on a page that was never mapped): delivered to the guest, never a host abort.
    return Error{Code::kFaultNotMapped, "fault on unmapped page"};
  }
  if ((pte->flags & kPteNotPresent) != 0) {
    return ResolveDemandFault(*this, *owner, pt, info, *pte);
  }
  return backend_->ResolveFault(*this, *owner, pt, *pte, info);
}

// --- μprocess lookup -----------------------------------------------------------------------

Uproc* KernelCore::FindUproc(Pid pid) {
  auto it = uprocs_.find(pid);
  return it == uprocs_.end() ? nullptr : it->second.get();
}

Uproc* KernelCore::UprocByAddress(uint64_t va) {
  const auto base = address_space_.RegionContaining(va);
  if (!base.has_value()) {
    return nullptr;
  }
  auto owner = region_by_base_.find(*base);
  if (owner == region_by_base_.end()) {
    return nullptr;
  }
  Uproc* uproc = FindUproc(owner->second);
  return uproc != nullptr && uproc->state == Uproc::State::kRunning ? uproc : nullptr;
}

Uproc* KernelCore::UprocByPageTable(const PageTable* pt) {
  auto it = pt_owners_.find(pt);
  return it == pt_owners_.end() ? nullptr : FindUproc(it->second);
}

Uproc& KernelCore::CurrentUproc() {
  Uproc* uproc = static_cast<Uproc*>(sched_.Current().context());
  UF_CHECK_MSG(uproc != nullptr, "current thread is not a μprocess thread");
  return *uproc;
}

std::vector<Pid> KernelCore::LivePids() const {
  std::vector<Pid> pids;
  for (const auto& [pid, uproc] : uprocs_) {
    if (uproc->state == Uproc::State::kRunning) {
      pids.push_back(pid);
    }
  }
  return pids;
}

std::vector<Pid> KernelCore::AllPids() const {
  std::vector<Pid> pids;
  pids.reserve(uprocs_.size());
  for (const auto& [pid, uproc] : uprocs_) {
    pids.push_back(pid);
  }
  return pids;
}

// --- segment permissions -------------------------------------------------------------------

uint32_t KernelCore::SegmentFlagsAt(uint64_t offset) const {
  if (offset >= layout_.text_off() && offset < layout_.text_off() + layout_.text_size()) {
    return kPteRead | kPteExec;
  }
  if (offset >= layout_.rodata_off() &&
      offset < layout_.rodata_off() + layout_.rodata_size()) {
    return kPteRead;
  }
  return kPteRw;  // GOT, data, heap, stack, tls, mmap
}

// --- μprocess construction ------------------------------------------------------------------

Result<Uproc*> KernelCore::CreateUproc(std::string name, Pid parent) {
  const Pid pid = next_pid_++;
  Uproc& uproc = *uprocs_.emplace(pid, std::make_unique<Uproc>(pid, sched_)).first->second;
  uproc.name = std::move(name);
  uproc.parent_pid = parent;
  if (Uproc* parent_proc = FindUproc(parent)) {
    parent_proc->children.push_back(pid);
    uproc.tenant = parent_proc->tenant;  // the μprocess tree bills to one tenant (§4.10)
  }
  uproc.size = layout_.TotalSize();
  if (backend_->private_page_tables()) {
    // MAS / VM-clone: identical layout in a private address space — every process sees the
    // same virtual base, which is why no relocation is needed (and why it is not a SAS).
    uproc.base = kUserBase;
    uproc.owned_pt = std::make_unique<PageTable>();
    uproc.page_table = uproc.owned_pt.get();
    pt_owners_[uproc.page_table] = pid;
  } else {
    auto region = address_space_.AllocateRegion(uproc.size, kRegionAlign);
    if (!region.ok()) {
      DestroyUprocShell(uproc);
      return region.error();
    }
    uproc.base = *region;
    uproc.page_table = &shared_pt_;
    if (config_.demand_paging) {
      // The region's VA is granted now; frames arrive on first touch (§4.12). Pure
      // address-space accounting — population state lives in the page table.
      address_space_.MarkReserveOnly(uproc.base);
    }
    region_by_base_[uproc.base] = pid;
  }
  uproc.mmap_cursor = uproc.base + layout_.mmap_off();
  return &uproc;
}

Result<Uproc*> KernelCore::CreateFreshUproc(std::string name, Pid parent) {
  UF_ASSIGN_OR_RETURN(Uproc* uproc, CreateUproc(std::move(name), parent));
  if (auto image = MapFreshImage(*uproc); !image.ok()) {
    DestroyUprocShell(*uproc);
    return image.error();
  }
  InstallArchCaps(*uproc);
  return uproc;
}

void KernelCore::DestroyUprocShell(Uproc& uproc) {
  UF_CHECK_MSG(uproc.thread == kInvalidThread,
               "DestroyUprocShell is only for shells whose thread never started");
  ReleaseUprocMemory(uproc);
  if (Uproc* parent = FindUproc(uproc.parent_pid)) {
    auto& kids = parent->children;
    kids.erase(std::remove(kids.begin(), kids.end(), uproc.pid()), kids.end());
  }
  uprocs_.erase(uproc.pid());
}

void KernelCore::EraseUproc(Pid pid) { uprocs_.erase(pid); }

Result<void> KernelCore::MapFreshImage(Uproc& uproc) {
  const uint64_t image_bytes = layout_.mmap_off();
  // sbrk's ceiling is the build-time static heap (§4.2); the break starts at the top in both
  // modes — the whole heap is backed (eagerly or by reservation) until the guest shrinks it.
  uproc.heap_break = uproc.base + layout_.heap_off() + layout_.heap_size();
  if (!config_.demand_paging) {
    // All segments except the on-demand mmap zone are mapped eagerly with zero frames — a
    // static unikernel-style image with the build-time-configured static heap (§4.2).
    for (uint64_t off = 0; off < image_bytes; off += kPageSize) {
      UF_ASSIGN_OR_RETURN(const FrameId frame, machine_.frames().Allocate());
      machine_.Charge(costs().frame_alloc + costs().pte_dup);
      uproc.page_table->Map(uproc.base + off, frame, SegmentFlagsAt(off));
    }
    return OkResult();
  }
  // Demand paging (§4.12): text/rodata/GOT/data stay eager — the loader writes them before
  // the first instruction runs — while heap, stack and TLS become frame-less kPteNotPresent
  // reservations zero-filled on first touch. The lowest stack page(s) are left entirely
  // unmapped: the guard gap, where a touch has nothing to fill and contains as SIGSEGV.
  const uint64_t eager_bytes = layout_.heap_off();
  for (uint64_t off = 0; off < eager_bytes; off += kPageSize) {
    UF_ASSIGN_OR_RETURN(const FrameId frame, machine_.frames().Allocate());
    machine_.Charge(costs().frame_alloc + costs().pte_dup);
    uproc.page_table->Map(uproc.base + off, frame, SegmentFlagsAt(off));
  }
  const uint64_t guard_lo = layout_.stack_off();
  const uint64_t guard_hi = guard_lo + kStackGuardPages * kPageSize;
  for (uint64_t off = eager_bytes; off < image_bytes; off += kPageSize) {
    if (off >= guard_lo && off < guard_hi) {
      continue;  // stack guard gap
    }
    machine_.Charge(costs().pte_dup);
    uproc.page_table->Map(uproc.base + off, kInvalidFrame, kPteNotPresent | kPteZeroFill);
  }
  return OkResult();
}

void KernelCore::InstallArchCaps(Uproc& uproc) {
  const uint32_t data_perms = kPermLoad | kPermStore | kPermLoadCap | kPermStoreCap |
                              kPermGlobal;
  if (policy_.confine_caps) {
    uproc.regs.ddc = Capability::Root(uproc.base, uproc.size, data_perms);
  } else {
    // Isolation disabled (R4): ambient authority over the whole user area.
    uproc.regs.ddc = Capability::Root(kUserBase, kUserTop - kUserBase, data_perms);
  }
  uproc.regs.pcc = Capability::Root(uproc.base + layout_.text_off(), layout_.text_size(),
                                    kPermLoad | kPermExecute);
  uproc.regs.csp = uproc.regs.ddc
                       .WithBounds(uproc.base + layout_.stack_off(), layout_.stack_size())
                       .WithAddress(uproc.base + layout_.stack_off() + layout_.stack_size());
  // Sealed kernel entry: the only way into kernel code, no trap required (§4.4).
  uproc.syscall_sentry =
      Capability::Root(kKernelBase, kKernelTop - kKernelBase, kPermLoad | kPermExecute)
          .AsSentry();
}

void KernelCore::StartUprocThread(Uproc& uproc, UprocEntry entry, int pinned_core) {
  auto wrapper = [](Kernel& kernel, Uproc& proc, UprocEntry fn) -> SimTask<void> {
    co_await fn(kernel, proc);
    // The entry returned without calling exit(): POSIX main() return implies exit(0).
    if (proc.state == Uproc::State::kRunning) {
      co_await kernel.procs().Exit(proc, 0);
    }
  };
  const ThreadId tid =
      sched_.Spawn(wrapper(AsKernel(), uproc, std::move(entry)), uproc.name, pinned_core);
  uproc.thread = tid;
  uproc.threads.assign(1, tid);
  if (uproc.thread_exit_wait == nullptr) {
    uproc.thread_exit_wait = std::make_unique<WaitQueue>(sched_);
  }
  // Attach the uproc to the thread control block for CurrentUproc() and context-switch
  // pricing. Spawn only enqueues, so the thread cannot have observed a null context.
  sched_.SetThreadContext(tid, &uproc);
}

Pid KernelCore::StartForkChild(Uproc& parent, Uproc& child, const ForkStats& stats,
                               UprocEntry entry) {
  child.fds = parent.fds->Clone();
  machine_.Charge(costs().fd_dup * static_cast<uint64_t>(child.fds->OpenCount()));
  // SAS backends place the child at a different base; MAS/VM-clone keep the parent's layout
  // (base delta zero).
  const uint64_t delta = child.base - parent.base;
  child.mmap_cursor = parent.mmap_cursor + delta;
  child.heap_break = parent.heap_break + delta;
  child.file_mappings = parent.file_mappings;
  for (auto& mapping : child.file_mappings) {
    mapping.va += delta;
  }
  child.syscall_sentry = parent.syscall_sentry;  // sealed kernel entry is per-system, not per-proc
  child.signals = parent.signals.ForkCopy();
  child.forked_child = true;
  child.fork_stats = stats;
  child.child_affinity = parent.child_affinity;
  StartUprocThread(child, std::move(entry), parent.child_affinity);
  return child.pid();
}

Result<Pid> KernelCore::Spawn(UprocEntry entry, std::string name, int pinned_core) {
  UF_ASSIGN_OR_RETURN(Uproc* uproc, CreateFreshUproc(std::move(name), kInvalidPid));
  uproc->fds = std::make_shared<FdTable>();
  StartUprocThread(*uproc, std::move(entry), pinned_core);
  return uproc->pid();
}

void KernelCore::ReleaseUprocMemory(Uproc& uproc) {
  if (uproc.page_table == nullptr) {
    return;
  }
  // SIGKILL aimed at a mid-move region: roll the move back on this thread so teardown (and
  // the barrier waiters behind it) never see the region split across two bases.
  compaction_->CancelMoveFor(uproc);
  const bool sas_region = uproc.owned_pt == nullptr;
  const bool frames_still_shared = UnmapUprocImage(uproc, /*per_page=*/0);
  if (uproc.owned_pt != nullptr) {
    pt_owners_.erase(uproc.owned_pt.get());
    uproc.owned_pt.reset();
  } else if (frames_still_shared && uproc.forks_performed > 0) {
    // A fork parent exiting while children still share its frames: those frames may contain
    // capabilities pointing into THIS region, and the relocation scanner resolves them through
    // AddressSpace::RegionContaining. Keep the region reserved (tombstone) so relocation stays
    // well-defined; reclaiming such regions is the compaction future work of §6.
    ++stats_.regions_tombstoned;
  } else if (config_.quarantine_freed_regions) {
    // Cornucopia-style: the freed range is unavailable for reuse — and invisible to the
    // relocation scanner — until the revocation sweep clears every capability bounded inside
    // it (DESIGN.md §4.13). Tombstoned regions above are exempt: their capabilities are still
    // live fork-partner state that relocation must keep resolving.
    address_space_.QuarantineRegion(uproc.base);
    stats_.quarantined_bytes += uproc.size;
  } else {
    address_space_.FreeRegion(uproc.base);
  }
  if (sas_region) {
    // Drop the region index entry — the owner is exiting, and UprocByAddress only ever
    // resolves to kRunning owners (tombstoned regions stay reserved in the address space, so
    // their bases cannot be reissued to a new μprocess).
    region_by_base_.erase(uproc.base);
  }
  uproc.page_table = nullptr;
  // Region churn is the compaction trigger's sampling point, exactly as frame release is the
  // admission controller's: every hole this teardown opened is visible here.
  compaction_->OnRegionChurn();
}

bool KernelCore::UnmapUprocImage(Uproc& uproc, Cycles per_page) {
  bool frames_still_shared = false;
  FrameAllocator& frames = machine_.frames();
  uproc.page_table->UnmapRange(uproc.base, uproc.base + uproc.size,
                               [&](uint64_t, FrameId frame) {
                                 if (per_page != 0) {
                                   machine_.Charge(per_page);
                                 }
                                 if (frame == kInvalidFrame) {
                                   return;  // not-present reservation: no frame ever existed
                                 }
                                 frames.Release(frame);
                                 frames_still_shared |= frames.IsLive(frame);
                               });
  uproc.file_mappings.clear();
  uproc.fault_around = {};  // speculative spans refer to unmapped pages now
  return frames_still_shared;
}

void KernelCore::RebaseRegionIndex(uint64_t old_base, uint64_t new_base, Pid pid) {
  auto it = region_by_base_.find(old_base);
  if (it != region_by_base_.end() && it->second == pid) {
    region_by_base_.erase(it);
  }
  region_by_base_[new_base] = pid;
}

// --- frame-accounting invariant -------------------------------------------------------------

Result<void> KernelCore::CheckFrameAccounting() const {
  // Expected refcount per frame: PTE mappings across every page table, plus kernel-held
  // references (shm objects registered by Kernel). The 48-bit walk is sparse, so its cost is
  // O(mapped pages), not O(address space).
  std::map<FrameId, uint32_t> expected;
  const auto count_pt = [&expected](const PageTable& pt) {
    pt.ForEachMapped(0, kVaTop, [&expected](uint64_t, const Pte& pte) {
      if (PtePopulated(pte)) {  // not-present reservations hold no frame
        ++expected[pte.frame];
      }
    });
  };
  count_pt(shared_pt_);
  for (const auto& [pid, uproc] : uprocs_) {
    if (uproc->owned_pt != nullptr) {
      count_pt(*uproc->owned_pt);
    }
  }
  if (kernel_frame_refs_) {
    kernel_frame_refs_([&expected](FrameId frame) { ++expected[frame]; });
  }
  page_cache_->ForEachFrame([&expected](FrameId frame) { ++expected[frame]; });

  const FrameAllocator& frames = machine_.frames();
  Result<void> verdict = OkResult();
  uint64_t live_slots = 0;
  frames.ForEachLive([&](FrameId id, uint32_t refcount) {
    ++live_slots;
    if (!verdict.ok()) {
      return;
    }
    auto it = expected.find(id);
    const uint32_t mapped = it == expected.end() ? 0 : it->second;
    if (mapped != refcount) {
      verdict = Error{Code::kErrInval,
                      "frame " + std::to_string(id) + " refcount " +
                          std::to_string(refcount) + " but " + std::to_string(mapped) +
                          " references exist" + (mapped == 0 ? " (leaked frame)" : "")};
    }
    if (it != expected.end()) {
      expected.erase(it);
    }
  });
  if (!verdict.ok()) {
    return verdict;
  }
  if (!expected.empty()) {
    const auto& [id, refs] = *expected.begin();
    return Error{Code::kErrInval, "frame " + std::to_string(id) + " has " +
                                      std::to_string(refs) +
                                      " references but is not live (dangling mapping)"};
  }
  if (live_slots != frames.frames_in_use()) {
    return Error{Code::kErrInval,
                 "frames_in_use " + std::to_string(frames.frames_in_use()) +
                     " != live slot count " + std::to_string(live_slots)};
  }
  return OkResult();
}

void KernelCore::CheckFrameAccountingOrDie() const {
  const Result<void> result = CheckFrameAccounting();
  if (!result.ok()) [[unlikely]] {
    const std::string msg = "frame accounting violated: " + result.error().message;
    UF_CHECK_MSG(false, msg.c_str());
  }
}

// --- user-memory access ---------------------------------------------------------------------

Result<void> KernelCore::ValidateUserBuffer(Uproc& caller, const Capability& cap, uint64_t va,
                                            uint64_t len, bool is_write) {
  // The hardware enforces the capability check regardless of policy when the transfer happens;
  // the kernel-side validation models the explicit checks of §4.4 (third principle).
  if (!policy_.validate_args) {
    return OkResult();
  }
  machine_.Charge(costs().validation_check);
  UF_RETURN_IF_ERROR(cap.CheckAccess(va, len, is_write ? kPermStore : kPermLoad));
  const bool confined =
      caller.ContainsVa(va) && (len == 0 || caller.ContainsVa(va + len - 1));
  if (policy_.confine_caps && !confined) {
    return Error{Code::kErrAccess, "buffer outside μprocess region"};
  }
  return OkResult();
}

SimTask<Result<void>> KernelCore::CopyFromUser(Uproc& caller, const Capability& cap,
                                               uint64_t va, std::span<std::byte> out) {
  if (policy_.tocttou_protect) {
    // Copy user memory into the kernel before any check-use sequence (§4.4, fourth principle).
    machine_.Charge(costs().TocttouCopy(out.size()));
    ++stats_.tocttou_copies;
  }
  co_return machine_.Load(*caller.page_table, cap, va, out);
}

SimTask<Result<void>> KernelCore::CopyToUser(Uproc& caller, const Capability& cap, uint64_t va,
                                             std::span<const std::byte> in) {
  if (policy_.tocttou_protect) {
    machine_.Charge(costs().TocttouCopy(in.size()));
    ++stats_.tocttou_copies;
  }
  co_return machine_.Store(*caller.page_table, cap, va, in);
}

// --- metrics --------------------------------------------------------------------------------

uint64_t KernelCore::ReservedBytes() const {
  uint64_t pages = shared_pt_.not_present_pages();
  for (const auto& [pid, uproc] : uprocs_) {
    if (uproc->owned_pt != nullptr) {
      pages += uproc->owned_pt->not_present_pages();
    }
  }
  return pages * kPageSize;
}

uint64_t KernelCore::UprocPssBytes(const Uproc& uproc) const {
  if (uproc.page_table == nullptr) {
    return 0;
  }
  uint64_t pss = 0;
  const FrameAllocator& frames = machine_.frames();
  uproc.page_table->ForEachMapped(
      uproc.base, uproc.base + uproc.size, [&](uint64_t, const Pte& pte) {
        if (PtePopulated(pte)) {
          pss += kPageSize / frames.RefCount(pte.frame);
        }
      });
  return pss;
}

uint64_t KernelCore::UprocUssBytes(const Uproc& uproc) const {
  if (uproc.page_table == nullptr) {
    return 0;
  }
  uint64_t uss = 0;
  const FrameAllocator& frames = machine_.frames();
  uproc.page_table->ForEachMapped(
      uproc.base, uproc.base + uproc.size, [&](uint64_t, const Pte& pte) {
        if (PtePopulated(pte) && frames.RefCount(pte.frame) == 1) {
          uss += kPageSize;
        }
      });
  return uss + backend_->ExtraResidencyBytes(*this, uproc);
}

}  // namespace ufork
