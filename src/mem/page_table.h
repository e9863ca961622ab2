// Four-level radix page table over the 48-bit simulated virtual address space (9+9+9+9 index
// bits, 4 KiB pages), mirroring an ARMv8 stage-1 table.
//
// PTE attribute bits include the two CHERI-specific attributes μFork builds on:
//   * kPteLoadCapFault — "fault on capability load" (Morello CDBM/LC attribute family): a
//     capability-width load with tag set through such a PTE raises kFaultCapLoadPage. This is
//     the hardware hook behind Copy-on-Pointer-Access (paper §4.2).
//   * kPteCow — kernel-software bit marking the frame as shared with a fork partner, so
//     permission faults on this page are resolvable by the fork engine rather than fatal.
//
// A single-address-space kernel owns exactly one PageTable; the multi-address-space baseline
// gives each process its own (same layout, different instances).
#ifndef UFORK_SRC_MEM_PAGE_TABLE_H_
#define UFORK_SRC_MEM_PAGE_TABLE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/mem/frame_allocator.h"

namespace ufork {

enum PteFlags : uint32_t {
  kPteRead = 1u << 0,
  kPteWrite = 1u << 1,
  kPteExec = 1u << 2,
  kPteLoadCapFault = 1u << 3,  // CoPA: tagged capability loads fault
  kPteCow = 1u << 4,           // shared with fork partner; faults are resolvable
  kPteShared = 1u << 5,        // MAP_SHARED memory: exempt from fork-time CoW
  kPteFaultAround = 1u << 6,   // resolved speculatively by fault-around; cleared on first
                               // access — still set when rescanned means the copy was wasted
  kPteNotPresent = 1u << 7,    // reserved VA, no frame yet: first touch raises a resolvable
                               // demand fault (DESIGN.md §4.12); frame must be kInvalidFrame
  kPteZeroFill = 1u << 8,      // with kPteNotPresent: populate with a zeroed frame on touch
  kPteFileBacked = 1u << 9,    // with kPteNotPresent: populate from the VFS page cache
                               // (the owning μprocess's file-mapping table names the inode)

  kPteRw = kPteRead | kPteWrite,
  kPteRx = kPteRead | kPteExec,
};

struct Pte {
  FrameId frame = kInvalidFrame;
  uint32_t flags = 0;
  bool operator==(const Pte&) const = default;
};

// A PTE slot is *in use* if it holds a frame or a demand-paging reservation; only in-use
// slots are returned by Lookup and visited by the sweeps. A slot with kInvalidFrame and
// no kPteNotPresent bit is free (the historical "unmapped" sentinel).
inline bool PteInUse(const Pte& pte) {
  return pte.frame != kInvalidFrame || (pte.flags & kPteNotPresent) != 0;
}
inline bool PtePopulated(const Pte& pte) { return pte.frame != kInvalidFrame; }

class PageTable {
 public:
  PageTable();
  ~PageTable();

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // Maps the page containing `va` to `frame` with `flags`. The page must not be mapped.
  // Frame refcounting is the caller's responsibility (the VM layer owns that policy).
  // A kInvalidFrame frame is legal iff `flags` carries kPteNotPresent (a reservation).
  void Map(uint64_t va, FrameId frame, uint32_t flags);

  // Unmaps the page containing `va`, returning its frame. The page must be in use; a
  // not-present reservation unmaps to kInvalidFrame (there is no frame to release).
  FrameId Unmap(uint64_t va);

  // Replaces the frame and/or flags of an existing mapping.
  void Remap(uint64_t va, FrameId frame, uint32_t flags);
  void SetFlags(uint64_t va, uint32_t flags);

  // Batch forms used by the fault-around window: page i of the window starting at `va` gets
  // frames[i] (RemapRange) with `flags`, OR-ed with `extra_flags_after_first` for every page
  // except the first (the faulting page is consumed immediately; the trailing pages carry the
  // speculative-resolution marker). Every page in the window must already be mapped.
  void RemapRange(uint64_t va, std::span<const FrameId> frames, uint32_t flags,
                  uint32_t extra_flags_after_first = 0);
  void SetFlagsRange(uint64_t va, uint64_t pages, uint32_t flags,
                     uint32_t extra_flags_after_first = 0);

  std::optional<Pte> Lookup(uint64_t va) const;
  Pte* LookupMutable(uint64_t va);

  // Leaf-run sweeps (DESIGN.md §4.1): each walks the radix tree once per 2 MiB leaf, skips
  // missing subtrees whole, and visits in-use slots in address order. fn may rewrite a
  // visited PTE's flags but not its frame; it may map or unmap pages outside the swept range.

  // Invokes fn(page_va, pte) for every in-use slot in [lo, hi).
  template <typename Fn>
  void ForEachMapped(uint64_t lo, uint64_t hi, Fn&& fn);
  template <typename Fn>
  void ForEachMapped(uint64_t lo, uint64_t hi, Fn&& fn) const {
    const_cast<PageTable*>(this)->ForEachMapped(
        lo, hi, [&fn](uint64_t va, const Pte& pte) { fn(va, pte); });
  }

  // Unmaps every in-use slot in [lo, hi), calling fn(page_va, frame) after each one; a
  // reservation unmaps to kInvalidFrame. Radix nodes stay allocated, as with Unmap.
  template <typename Fn>
  void UnmapRange(uint64_t lo, uint64_t hi, Fn&& fn);

  // Duplicates the in-use slots of [src_lo, src_lo + bytes) into `dst` (this table or
  // another) at the same offsets from dst_lo; the two ranges must not overlap and every
  // destination slot must be free. fn(src_va, src_pte) returns the PTE to install — its frame
  // reference is the caller's, as with Map — or nullopt to stop the sweep there, leaving that
  // slot's destination free. Each run is the shorter of the source and destination leaf
  // runs, and a destination leaf is created only when a PTE is installed in it, so the radix
  // nodes allocated equal those of a per-page Map loop. Returns false if fn stopped it.
  template <typename Fn>
  bool CloneRange(PageTable& dst, uint64_t src_lo, uint64_t dst_lo, uint64_t bytes, Fn&& fn);

  uint64_t CountMapped(uint64_t lo, uint64_t hi) const;

  // First page-aligned VA in [lo, hi) starting a run of `pages` free slots (neither populated
  // nor reserved), or nullopt. The free-VA scan behind demand-mode mmap placement — the
  // AdrOS vmm_find_free_area idea adapted to the radix table.
  std::optional<uint64_t> FindUnmappedRun(uint64_t lo, uint64_t hi, uint64_t pages) const;

  // In-use slots: populated frames plus not-present reservations.
  uint64_t mapped_pages() const { return mapped_pages_; }
  // Reservations awaiting their first touch (demand paging); mapped but frame-less.
  uint64_t not_present_pages() const { return not_present_pages_; }
  // Slots actually holding a frame — the table's contribution to resident memory.
  uint64_t resident_pages() const { return mapped_pages() - not_present_pages(); }
  // Number of radix nodes allocated — the "page table memory" a real kernel would spend.
  uint64_t node_count() const { return node_count_; }

 private:
  static constexpr int kLevels = 4;
  static constexpr int kBitsPerLevel = 9;
  static constexpr uint64_t kFanout = 1ULL << kBitsPerLevel;

  struct Table;  // interior node: children tables or leaf PTE array

  static constexpr uint64_t kLeafSpan = kFanout * kPageSize;  // VA covered by one leaf

  static uint64_t IndexAt(uint64_t va, int level) {
    const int shift = 12 + kBitsPerLevel * (kLevels - 1 - level);
    return (va >> shift) & (kFanout - 1);
  }
  static uint64_t LeafIndex(uint64_t va) { return IndexAt(va, kLevels - 1); }

  Pte* Walk(uint64_t va, bool create);
  const Pte* WalkConst(uint64_t va) const;
  // The PTE array of the leaf covering `va` (creating missing nodes if `create`), or nullptr.
  // *next receives the first VA past that leaf, or past the missing subtree that stopped the
  // walk — where a sweep resumes.
  Pte* FindLeaf(uint64_t va, bool create, uint64_t* next);
  // Fills the free slot `slot` with `pte` and counts it (Map's checks and bookkeeping).
  void Install(Pte& slot, const Pte& pte) {
    UF_CHECK_MSG(!PteInUse(slot), "mapping an already mapped page");
    UF_CHECK_MSG(pte.frame != kInvalidFrame || (pte.flags & kPteNotPresent) != 0,
                 "frame-less mapping without kPteNotPresent");
    slot = pte;
    ++mapped_pages_;
    if (pte.frame == kInvalidFrame) {
      ++not_present_pages_;
    }
  }

  std::unique_ptr<Table> root_;
  uint64_t mapped_pages_ = 0;
  uint64_t not_present_pages_ = 0;
  uint64_t node_count_ = 0;
};

template <typename Fn>
void PageTable::ForEachMapped(uint64_t lo, uint64_t hi, Fn&& fn) {
  uint64_t va = AlignDown(lo, kPageSize);
  while (va < hi) {
    uint64_t next = 0;
    Pte* leaf = FindLeaf(va, /*create=*/false, &next);
    if (leaf != nullptr) {
      const uint64_t end = std::min(next, hi);
      for (uint64_t i = LeafIndex(va); va < end; ++i, va += kPageSize) {
        if (PteInUse(leaf[i])) {
          fn(va, leaf[i]);
        }
      }
    }
    va = next;
  }
}

template <typename Fn>
void PageTable::UnmapRange(uint64_t lo, uint64_t hi, Fn&& fn) {
  ForEachMapped(lo, hi, [&](uint64_t va, Pte& pte) {
    const FrameId frame = pte.frame;
    pte = Pte{};
    mapped_pages_ -= 1;
    if (frame == kInvalidFrame) {
      not_present_pages_ -= 1;
    }
    fn(va, frame);
  });
}

template <typename Fn>
bool PageTable::CloneRange(PageTable& dst, uint64_t src_lo, uint64_t dst_lo, uint64_t bytes,
                           Fn&& fn) {
  UF_DCHECK(src_lo % kPageSize == 0 && dst_lo % kPageSize == 0);
  UF_DCHECK(&dst != this || src_lo + bytes <= dst_lo || dst_lo + bytes <= src_lo);
  const uint64_t src_hi = src_lo + bytes;
  uint64_t va = src_lo;
  while (va < src_hi) {
    uint64_t src_next = 0;
    Pte* src_leaf = FindLeaf(va, /*create=*/false, &src_next);
    if (src_leaf == nullptr) {
      va = src_next;
      continue;
    }
    const uint64_t dst_va = dst_lo + (va - src_lo);
    const uint64_t dst_room = AlignDown(dst_va, kLeafSpan) + kLeafSpan - dst_va;
    const uint64_t end = std::min({src_next, src_hi, va + dst_room});
    Pte* dst_leaf = nullptr;
    for (uint64_t i = LeafIndex(va), j = LeafIndex(dst_va); va < end;
         ++i, ++j, va += kPageSize) {
      if (!PteInUse(src_leaf[i])) {
        continue;
      }
      const std::optional<Pte> pte = fn(va, src_leaf[i]);
      if (!pte.has_value()) {
        return false;
      }
      if (dst_leaf == nullptr) {
        uint64_t unused = 0;
        dst_leaf = dst.FindLeaf(dst_va, /*create=*/true, &unused);
      }
      dst.Install(dst_leaf[j], *pte);
    }
  }
  return true;
}

}  // namespace ufork

#endif  // UFORK_SRC_MEM_PAGE_TABLE_H_
