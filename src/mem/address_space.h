// Single-address-space region allocator.
//
// In a μFork system every μprocess is loaded into one contiguous area of the shared virtual
// address space (paper §3.7): contiguity lets capability bounds confine a μprocess cheaply.
// This allocator hands out those contiguous regions (first fit over a free list), optionally
// randomizing placement (the paper's ASLR note), and tracks the fragmentation statistics the
// paper's §6 "Fragmentation" discussion is about.
#ifndef UFORK_SRC_MEM_ADDRESS_SPACE_H_
#define UFORK_SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/units.h"

namespace ufork {

struct AddressSpaceStats {
  uint64_t total_bytes = 0;
  uint64_t free_bytes = 0;
  uint64_t largest_free_block = 0;
  uint64_t region_count = 0;
  // Bytes granted reserve-only (demand paging): VA handed out, frames deferred to first
  // touch. Disjoint accounting from free_bytes — these regions ARE allocated.
  uint64_t reserved_bytes = 0;
  // Bytes parked in quarantine awaiting the revocation sweep (DESIGN.md §4.13). Neither free
  // nor allocated: unavailable for reallocation until swept.
  uint64_t quarantined_bytes = 0;
  // External fragmentation in [0,1]: 1 - largest_free_block / free_bytes.
  double ExternalFragmentation() const {
    if (free_bytes == 0) {
      return 0.0;
    }
    return 1.0 - static_cast<double>(largest_free_block) / static_cast<double>(free_bytes);
  }
};

// A freed-or-moved-from range parked until the revocation sweep clears every capability whose
// bounds fall inside it (Cornucopia-style quarantine, DESIGN.md §4.13). Generation stamps give
// the sweeper a cutoff: a pass revokes every range quarantined before the pass began, and
// ranges arriving mid-pass wait for the next one.
struct QuarantinedRange {
  uint64_t base = 0;
  uint64_t size = 0;
  uint64_t generation = 0;
};

class AddressSpace {
 public:
  // Manages [lo, hi). lo/hi must be page aligned.
  AddressSpace(uint64_t lo, uint64_t hi);

  // Allocates a region of `size` bytes aligned to `align` (power of two). With ASLR enabled a
  // random eligible slide inside the chosen free block is applied instead of packing left.
  Result<uint64_t> AllocateRegion(uint64_t size, uint64_t align);

  void FreeRegion(uint64_t base);

  // Moves an allocated region onto the quarantine list instead of the free list. The range is
  // invisible to RegionContaining (relocation scans strip capabilities pointing into it) and
  // unavailable for reallocation until ReleaseQuarantinedUpTo returns it to the free list.
  void QuarantineRegion(uint64_t base);

  // Snapshot of the quarantine list in arrival (generation) order.
  std::vector<QuarantinedRange> QuarantinedRanges() const;

  // Returns every quarantined range with generation <= `generation` to the free list. Called
  // only after a full revocation pass has cleared all capabilities bounded inside them.
  void ReleaseQuarantinedUpTo(uint64_t generation);

  // Generation stamp of the most recently quarantined range (0 if none ever).
  uint64_t quarantine_generation() const;

  // Allocates exactly [base, base+size); fails if the range is not wholly free. Used by the
  // compactor to place regions deterministically.
  Result<uint64_t> AllocateRegionAt(uint64_t base, uint64_t size);

  // Lowest base at which a first-fit allocation of (size, align) would land, without
  // allocating. Ignores ASLR (the compactor packs deterministically).
  std::optional<uint64_t> FirstFitBase(uint64_t size, uint64_t align) const;

  // Demand paging (DESIGN.md §4.12): tags an allocated region as reserve-only — VA granted
  // now, frames deferred to first touch. Pure accounting (AddressSpaceStats::reserved_bytes);
  // the page table owns actual population state. FreeRegion clears the tag; the compactor
  // re-tags the destination when it moves a tagged region.
  void MarkReserveOnly(uint64_t base);
  bool IsReserveOnly(uint64_t base) const;

  // Returns the base of the allocated region containing `addr`, if any. The fork relocation
  // scanner uses this to find which μprocess a stale capability points into (chained forks:
  // a grandchild page may still hold capabilities pointing at the grandparent).
  std::optional<uint64_t> RegionContaining(uint64_t addr) const;
  std::optional<uint64_t> RegionSize(uint64_t base) const;

  // Single-lookup variant returning {base, size}: the relocation scanner resolves the owning
  // region and its extent from one map probe, then memoizes the interval across the page's
  // remaining capabilities.
  std::optional<std::pair<uint64_t, uint64_t>> RegionContainingWithSize(uint64_t addr) const;

  void EnableAslr(uint64_t seed);

  // Fragmentation over the `slot_bytes`-sized allocation slots spanned by live regions: the
  // fraction of slots at or below the highest allocated region's slot that cover no allocated
  // byte. 0.0 when empty or packed against lo(); rises toward 1.0 as exits punch holes below
  // the high-water region. The compaction trigger's pressure metric: unlike
  // ExternalFragmentation (which the arena's vast untouched tail pins near zero), this only
  // looks at the footprint compaction could actually shrink. Quarantined ranges count as free
  // slots — they are exactly the holes the sweep is about to hand back.
  double SlotFragmentation(uint64_t slot_bytes) const;

  // Deterministic fault injection (FaultSite::kRegionGrant / kCompactTarget). Null: disabled.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  AddressSpaceStats Stats() const;

  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }

 private:
  void InsertFree(uint64_t base, uint64_t size);

  uint64_t lo_;
  uint64_t hi_;
  FaultInjector* injector_ = nullptr;
  std::map<uint64_t, uint64_t> free_;            // base -> size, coalesced
  std::map<uint64_t, uint64_t> allocated_;       // base -> size
  std::set<uint64_t> reserve_only_;              // bases of demand-reserved regions
  std::map<uint64_t, QuarantinedRange> quarantined_;  // base -> range awaiting revocation
  uint64_t quarantine_gen_ = 0;
  std::optional<Rng> aslr_rng_;
};

}  // namespace ufork

#endif  // UFORK_SRC_MEM_ADDRESS_SPACE_H_
