#include "src/ufork/relocate.h"

namespace ufork {

RelocationResult RelocateFrameInto(Frame& frame, const AddressSpace& as, uint64_t region_lo,
                                   uint64_t region_size, RegionMemo* memo) {
  RelocationResult result;
  const uint64_t region_hi = region_lo + region_size;
  // The memo caches the last source-region interval found so successive anchors inside it skip
  // the address-space map probe (see RegionMemo in relocate.h). Batch callers share one memo
  // across frames; standalone calls use a fresh local one.
  RegionMemo local;
  RegionMemo& m = memo != nullptr ? *memo : local;
  frame.ForEachTaggedCap([&](uint64_t /*offset*/, Capability& cap) {
    ++result.tags_seen;
    if (!cap.EscapesRegion(region_lo, region_hi)) {
      return;  // already confined to this μprocess
    }
    // Locate the source region. The anchor is the capability's base: relocation preserves the
    // region-relative offset, which is meaningful because all regions share one layout.
    const uint64_t anchor = cap.base();
    if (anchor < m.lo || anchor >= m.hi) {
      const auto src = as.RegionContainingWithSize(anchor);
      if (!src.has_value()) {
        // No owning region: a stale pointer into freed memory or an attempted kernel-
        // capability leak. Invalidate — monotonicity means the child could otherwise keep
        // foreign authority.
        cap = cap.Untagged();
        ++result.stripped;
        return;
      }
      m.lo = src->first;
      m.hi = src->first + src->second;
    }
    // Rebase from the source region (when the source is this very region, the capability
    // escapes over its edge and the same call clamps it in place).
    cap = cap.RelocatedInto(m.lo, region_lo, region_hi);
    ++result.relocated;
  });
  return result;
}

RelocationResult RelocateFrameInto(FrameAllocator& frames, FrameId id, const AddressSpace& as,
                                   uint64_t region_lo, uint64_t region_size, RegionMemo* memo) {
  if (!frames.frame(id).HasTags()) {
    return {};
  }
  return RelocateFrameInto(frames.WritableFrame(id), as, region_lo, region_size, memo);
}

RelocationResult RelocateRegisterFile(RegisterFile& regs, uint64_t parent_lo,
                                      uint64_t parent_size, uint64_t child_lo) {
  RelocationResult result;
  const uint64_t parent_hi = parent_lo + parent_size;
  const uint64_t child_hi = child_lo + parent_size;
  auto rewrite = [&](Capability& cap) {
    if (!cap.tag()) {
      return;  // integer register
    }
    ++result.tags_seen;
    if (!cap.EscapesRegion(child_lo, child_hi)) {
      return;
    }
    if (cap.base() >= parent_lo && cap.base() < parent_hi) {
      cap = cap.RelocatedInto(parent_lo, child_lo, child_hi);
      ++result.relocated;
    }
    // Registers are curated by the kernel: capabilities not referring to the parent region
    // (e.g. an unconfined DDC when isolation is disabled) are inherited verbatim.
  };
  for (auto& reg : regs.c) {
    rewrite(reg);
  }
  rewrite(regs.pcc);
  rewrite(regs.csp);
  rewrite(regs.ddc);
  return result;
}

}  // namespace ufork
