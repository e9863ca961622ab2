#include "src/ufork/compaction.h"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "src/ufork/relocate.h"
#include "src/ufork/revocation.h"

namespace ufork {

namespace {

// Incremental-planner quiescence: every thread of the owner is parked on a wait queue (or
// already gone). A blocked owner cannot observe its region mid-move — it resumes through the
// service's syscall barrier after the move commits, re-deriving pointers from relocated state.
bool OwnerQuiescent(Kernel& kernel, const Uproc& uproc) {
  const auto blocked_or_dead = [&kernel](ThreadId tid) {
    return !kernel.sched().IsAlive(tid) || kernel.sched().IsBlocked(tid);
  };
  if (!blocked_or_dead(uproc.thread)) {
    return false;
  }
  for (const ThreadId tid : uproc.threads) {
    if (!blocked_or_dead(tid)) {
      return false;
    }
  }
  return true;
}

// One region move, advanced chunk-at-a-time. A chunk first remaps its pages into the target
// half, then rewrites the tagged capabilities of the chunk's frames — the stop-the-world order
// exactly, when the chunk is the whole region (budget 0), so the historical charge and
// injection sequence is reproduced by construction. Per-region counters stay local until the
// move commits: an aborted region must leave the stats exactly as if it had only been
// considered.
class UforkRegionMover : public RegionMover {
 public:
  UforkRegionMover(Kernel& kernel, Uproc& uproc, uint64_t new_base, bool batched_remap,
                   CompactionStats& stats)
      : kernel_(kernel),
        uproc_(uproc),
        old_base_(uproc.base),
        new_base_(new_base),
        batched_remap_(batched_remap),
        stats_(stats) {
    uproc.page_table->ForEachMapped(
        uproc.base, uproc.base + uproc.size,
        [this](uint64_t va, const Pte& pte) { pages_.emplace_back(va, pte); });
  }

  uint64_t from_base() const override { return old_base_; }
  uint64_t to_base() const override { return new_base_; }
  uint64_t size() const override { return uproc_.size; }
  uint64_t moved_pages() const override { return next_; }

  Status Step(uint64_t budget_pages) override {
    UF_CHECK_MSG(status_ == Status::kMoving, "Step on a finished move");
    Machine& machine = kernel_.machine();
    const CostModel& costs = kernel_.costs();
    PageTable& pt = *uproc_.page_table;
    const size_t end = budget_pages == 0
                           ? pages_.size()
                           : std::min(pages_.size(), next_ + static_cast<size_t>(budget_pages));
    const size_t chunk_begin = next_;
    // Move the chunk's mappings (ascending order; the target block is disjoint from the
    // source). The incremental path batches the PTE updates into one shootdown-amortized
    // charge; the stop-the-world path keeps the historical per-page cost.
    if (batched_remap_ && end > chunk_begin) {
      machine.Charge(costs.pte_update_batched);
    }
    for (size_t i = chunk_begin; i < end; ++i) {
      const auto& [va, pte] = pages_[i];
      if (!batched_remap_) {
        machine.Charge(costs.pte_update);
      }
      const FrameId frame = pt.Unmap(va);
      pt.Map(new_base_ + (va - old_base_), frame, pte.flags);
    }
    next_ = end;  // remapped prefix watermark: ForwardVa resolves these at the destination
    // Rewrite every tagged capability in the chunk's frames — the same offset translation
    // fork performs, applied region-to-region. The old region is still registered, so chained
    // lookups resolve.
    FaultInjector& injector = kernel_.fault_injector();
    for (size_t i = chunk_begin; i < end; ++i) {
      const auto& [va, pte] = pages_[i];
      if ((pte.flags & kPteShared) != 0 || !PtePopulated(pte)) {
        continue;  // tag-free shared windows; reservations have no frame to scan
      }
      if (injector.ShouldFail(FaultSite::kCompactRelocate)) {
        Cancel();
        return Status::kAborted;
      }
      machine.Charge(costs.page_tag_scan);
      const RelocationResult reloc = RelocateFrameInto(
          machine.frames(), pte.frame, kernel_.address_space(), new_base_, uproc_.size);
      machine.Charge(costs.cap_relocate * reloc.relocated);
      caps_relocated_ += reloc.relocated;
      rewritten_.push_back(pte.frame);
    }
    if (next_ == pages_.size()) {
      Commit();
      return Status::kCommitted;
    }
    return Status::kMoving;
  }

  void Cancel() override {
    UF_CHECK_MSG(status_ == Status::kMoving, "Cancel on a finished move");
    Machine& machine = kernel_.machine();
    const CostModel& costs = kernel_.costs();
    AddressSpace& as = kernel_.address_space();
    PageTable& pt = *uproc_.page_table;
    // Roll the region back in place. Both regions are still allocated, so the reverse
    // relocation resolves new-region capabilities through RegionContaining exactly as the
    // forward pass did; frames not yet rewritten still point into the old region and pass
    // through the scan untouched.
    for (const FrameId frame : rewritten_) {
      machine.Charge(costs.page_tag_scan);
      const RelocationResult reloc =
          RelocateFrameInto(machine.frames(), frame, as, old_base_, uproc_.size);
      machine.Charge(costs.cap_relocate * reloc.relocated);
    }
    if (batched_remap_ && next_ > 0) {
      machine.Charge(costs.pte_update_batched);
    }
    for (size_t i = 0; i < next_; ++i) {
      const auto& [va, pte] = pages_[i];
      if (!batched_remap_) {
        machine.Charge(costs.pte_update);
      }
      const FrameId frame = pt.Unmap(new_base_ + (va - old_base_));
      pt.Map(va, frame, pte.flags);
    }
    as.FreeRegion(new_base_);
    ++stats_.regions_aborted;
    status_ = Status::kAborted;
  }

  std::optional<uint64_t> ForwardVa(uint64_t page_va) const override {
    if (status_ != Status::kMoving || page_va < old_base_ ||
        page_va >= old_base_ + uproc_.size) {
      return std::nullopt;
    }
    // pages_ is VA-ascending; only the remapped prefix [0, next_) lives at the destination.
    const auto prefix_end = pages_.begin() + static_cast<std::ptrdiff_t>(next_);
    const auto it = std::lower_bound(
        pages_.begin(), prefix_end, page_va,
        [](const std::pair<uint64_t, Pte>& entry, uint64_t va) { return entry.first < va; });
    if (it == prefix_end || it->first != page_va) {
      return std::nullopt;
    }
    return new_base_ + (page_va - old_base_);
  }

 private:
  void Commit() {
    AddressSpace& as = kernel_.address_space();
    const RelocationResult reg_reloc =
        RelocateRegisterFile(uproc_.regs, old_base_, uproc_.size, new_base_);
    caps_relocated_ += reg_reloc.relocated;

    uproc_.mmap_cursor = new_base_ + (uproc_.mmap_cursor - old_base_);
    uproc_.heap_break = new_base_ + (uproc_.heap_break - old_base_);
    for (auto& mapping : uproc_.file_mappings) {
      mapping.va = new_base_ + (mapping.va - old_base_);
    }
    if (as.IsReserveOnly(old_base_)) {
      as.MarkReserveOnly(new_base_);  // reserved-bytes accounting follows the region
    }
    uproc_.base = new_base_;
    kernel_.RebaseRegionIndex(old_base_, new_base_, uproc_.pid());
    if (kernel_.config().quarantine_freed_regions) {
      // Cornucopia-style: the moved-from range may hold stale capability targets elsewhere in
      // the system; park it until the revocation sweep has cleared them (revocation.h).
      as.QuarantineRegion(old_base_);
      kernel_.stats().quarantined_bytes += uproc_.size;
    } else {
      as.FreeRegion(old_base_);
    }
    stats_.pages_remapped += pages_.size();
    stats_.caps_relocated += caps_relocated_;
    ++stats_.regions_moved;
    status_ = Status::kCommitted;
  }

  Kernel& kernel_;
  Uproc& uproc_;
  const uint64_t old_base_;
  const uint64_t new_base_;
  std::vector<std::pair<uint64_t, Pte>> pages_;  // VA-ascending mapping snapshot at plan time
  const bool batched_remap_;
  CompactionStats& stats_;  // owned by the driver (engine or STW pass); outlives the mover
  Status status_ = Status::kMoving;
  size_t next_ = 0;  // pages_[0, next_) are remapped into the target half
  uint64_t caps_relocated_ = 0;
  std::vector<FrameId> rewritten_;  // frames whose capabilities already point at new_base_
};

// Shared planner: considers movable μprocesses with base ≥ *cursor in ascending order and
// returns a mover for the first candidate whose target grant succeeds, advancing the cursor
// past every region it considered. Single-pass semantics — moved regions land below the
// cursor and are never reconsidered — which makes the budget-0 loop charge-for-charge
// identical to the historical stop-the-world sweep.
std::unique_ptr<UforkRegionMover> PlanNextMove(Kernel& kernel, uint64_t& cursor,
                                               CompactionStats& stats, bool require_quiescent,
                                               bool batched_remap) {
  AddressSpace& as = kernel.address_space();
  Machine& machine = kernel.machine();
  for (;;) {
    // Lowest-based movable μprocess at or above the cursor, so holes migrate right. Movable
    // means: lives in the shared address space (μFork backend) with a real page table.
    Uproc* victim = nullptr;
    for (const Pid pid : kernel.LivePids()) {
      Uproc* uproc = kernel.FindUproc(pid);
      if (uproc == nullptr || uproc->owned_pt != nullptr || uproc->page_table == nullptr ||
          uproc->base < cursor) {
        continue;
      }
      if (victim == nullptr || uproc->base < victim->base) {
        victim = uproc;
      }
    }
    if (victim == nullptr) {
      return nullptr;  // pass complete
    }
    cursor = victim->base + 1;
    ++stats.regions_considered;
    if (require_quiescent && !OwnerQuiescent(kernel, *victim)) {
      ++stats.regions_skipped_busy;
      continue;
    }

    // A region still CoW/CoPA-entangled with a fork partner must not move: the partner's
    // stale capabilities are resolved against this region's address. Shared-memory windows
    // (kPteShared) are fine — they are tag-free by construction.
    bool entangled = false;
    victim->page_table->ForEachMapped(
        victim->base, victim->base + victim->size, [&](uint64_t, const Pte& pte) {
          entangled |= (pte.flags & kPteCow) != 0 ||
                       ((pte.flags & kPteShared) == 0 && PtePopulated(pte) &&
                        machine.frames().RefCount(pte.frame) > 1);
        });
    if (entangled) {
      ++stats.regions_skipped_shared;
      continue;
    }

    const auto candidate = as.FirstFitBase(victim->size, 2 * kMiB);
    if (!candidate.has_value() || *candidate >= victim->base) {
      continue;  // already as far left as it can go
    }
    auto granted = as.AllocateRegionAt(*candidate, victim->size);
    if (!granted.ok()) {
      // Degrade, don't die: a failed target grant (raced allocation, injected exhaustion)
      // keeps the fragmented layout; the μprocess is untouched and the sweep continues.
      ++stats.regions_skipped_grant_failed;
      continue;
    }
    return std::make_unique<UforkRegionMover>(kernel, *victim, *candidate, batched_remap,
                                              stats);
  }
}

class UforkCompactionEngine : public CompactionEngine {
 public:
  explicit UforkCompactionEngine(Kernel& kernel) : kernel_(kernel), sweeper_(kernel) {}

  std::unique_ptr<RegionMover> NextMove(bool require_quiescent, bool batched_remap) override {
    return PlanNextMove(kernel_, cursor_, stats_, require_quiescent, batched_remap);
  }

  void ResetPass() override { cursor_ = 0; }

  bool SweepStep(uint64_t max_frames) override { return sweeper_.Step(max_frames); }
  bool SweepPending() const override { return sweeper_.pending(); }

 private:
  Kernel& kernel_;
  RevocationSweeper sweeper_;
  uint64_t cursor_ = 0;        // next base the current planning pass will consider
  CompactionStats stats_;      // cumulative across service passes
};

}  // namespace

std::unique_ptr<CompactionEngine> MakeUforkCompactionEngine(Kernel& kernel) {
  return std::make_unique<UforkCompactionEngine>(kernel);
}

Result<CompactionStats> CompactAddressSpace(Kernel& kernel) {
  if (kernel.sched().InThread()) {
    // The safepoint contract above is load-bearing, not advisory: a simulated thread has live
    // register state and peers mid-syscall that this pass would silently invalidate. Inside a
    // running system, use the incremental CompactionService instead.
    return Error{Code::kErrAgain,
                 "stop-the-world compaction requires global quiescence: call it between Run() "
                 "phases, or drive the incremental CompactionService from inside the system"};
  }
  CompactionStats stats;
  AddressSpace& as = kernel.address_space();
  const uint64_t before_largest = as.Stats().largest_free_block;
  const Cycles pause_start = kernel.sched().Now();

  uint64_t cursor = 0;
  while (auto mover = PlanNextMove(kernel, cursor, stats, /*require_quiescent=*/false,
                                   /*batched_remap=*/false)) {
    // Budget 0: the whole region in one chunk — the move commits or aborts, never parks.
    (void)mover->Step(0);
  }

  KernelStats& kstats = kernel.stats();
  kstats.pause_cycles_max = std::max(kstats.pause_cycles_max, kernel.sched().Now() - pause_start);
  stats.bytes_reclaimed_contiguity = as.Stats().largest_free_block - before_largest;
  return stats;
}

}  // namespace ufork
