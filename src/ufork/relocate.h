// The capability relocation scanner (paper §4.2, "Copy-on-Pointer-Access" copy step 3).
//
// After a page is copied for a child μprocess, it is scanned in 16-byte increments for valid
// CHERI tags. Each tagged capability that still refers to memory outside the child's region is
// rebased: its cursor and bounds are shifted by the region delta and clamped into the child's
// region. Because every μprocess region has an identical internal layout, the rebase is a pure
// offset translation. Capabilities pointing nowhere legitimate (e.g. a would-be kernel pointer
// leak) are stripped of their tag — the security invariant that no authority escapes the
// μprocess (§4.2).
#ifndef UFORK_SRC_UFORK_RELOCATE_H_
#define UFORK_SRC_UFORK_RELOCATE_H_

#include <cstdint>

#include "src/machine/register_file.h"
#include "src/mem/address_space.h"
#include "src/mem/frame.h"
#include "src/mem/frame_allocator.h"

namespace ufork {

struct RelocationResult {
  uint64_t tags_seen = 0;
  uint64_t relocated = 0;
  uint64_t stripped = 0;
};

// Memoized source-region interval for the relocation scan. Capabilities found in one page —
// and across the adjacent pages of a fault-around window or an eager fork sweep — overwhelmingly
// share an owning region, so callers processing several frames pass one memo across the whole
// batch and the address-space map is probed only when an anchor leaves the cached interval.
// Starts as the empty interval so the first escaping capability always probes.
struct RegionMemo {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

// Rewrites every tagged capability in `frame` so it refers into [region_lo, region_lo+size).
// `as` maps a stale capability to its source region (which may be the parent, or a more
// distant ancestor after chained forks). `memo` carries the source-interval cache across
// frames; nullptr scans with a fresh per-call memo.
RelocationResult RelocateFrameInto(Frame& frame, const AddressSpace& as, uint64_t region_lo,
                                   uint64_t region_size, RegionMemo* memo = nullptr);

// The same rewrite of frame `id`. A frame without tags has nothing to relocate, so it is not
// given storage (a tagged frame always has storage already).
RelocationResult RelocateFrameInto(FrameAllocator& frames, FrameId id, const AddressSpace& as,
                                   uint64_t region_lo, uint64_t region_size,
                                   RegionMemo* memo = nullptr);

// Same rewrite for a register file at fork time (tags extend to registers, §3.5 step 2).
// `parent_lo` is the forking μprocess's region base (registers always refer to the parent).
RelocationResult RelocateRegisterFile(RegisterFile& regs, uint64_t parent_lo,
                                      uint64_t parent_size, uint64_t child_lo);

}  // namespace ufork

#endif  // UFORK_SRC_UFORK_RELOCATE_H_
