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

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "src/base/status.h"
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
};

// A PTE slot is *in use* if it holds a frame or a demand-paging reservation; only in-use
// slots are returned by Lookup and visited by ForEachMapped. A slot with kInvalidFrame and
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

  // Invokes fn(page_va, pte) for every mapped page in [lo, hi), in address order.
  void ForEachMapped(uint64_t lo, uint64_t hi,
                     const std::function<void(uint64_t, Pte&)>& fn);
  void ForEachMapped(uint64_t lo, uint64_t hi,
                     const std::function<void(uint64_t, const Pte&)>& fn) const;

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

  static uint64_t IndexAt(uint64_t va, int level) {
    const int shift = 12 + kBitsPerLevel * (kLevels - 1 - level);
    return (va >> shift) & (kFanout - 1);
  }

  Pte* Walk(uint64_t va, bool create);
  const Pte* WalkConst(uint64_t va) const;

  std::unique_ptr<Table> root_;
  uint64_t mapped_pages_ = 0;
  uint64_t not_present_pages_ = 0;
  uint64_t node_count_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_MEM_PAGE_TABLE_H_
