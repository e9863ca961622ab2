#include "src/ufork/revocation.h"

#include <algorithm>
#include <optional>
#include <string>

namespace ufork {

bool RevocationSweeper::pending() const {
  return !kernel_.address_space().QuarantinedRanges().empty();
}

void RevocationSweeper::BeginPass() {
  ranges_.clear();
  pass_generation_ = 0;
  for (const QuarantinedRange& r : kernel_.address_space().QuarantinedRanges()) {
    ranges_.emplace_back(r.base, r.base + r.size);
    pass_generation_ = std::max(pass_generation_, r.generation);
  }
  frames_.clear();
  kernel_.machine().frames().ForEachLive(
      [this](FrameId id, uint32_t) { frames_.push_back(id); });
  cursor_ = 0;
  in_pass_ = true;
}

bool RevocationSweeper::Step(uint64_t max_frames) {
  FaultInjector& injector = kernel_.fault_injector();
  if (!in_pass_) {
    if (!pending()) {
      return false;
    }
    if (injector.ShouldFail(FaultSite::kRevokeSweep)) {
      return true;  // deferral is fail-safe: the quarantine stays parked
    }
    BeginPass();
  } else if (injector.ShouldFail(FaultSite::kRevokeSweep)) {
    return true;  // this slice is deferred; pass state and quarantine are untouched
  }
  Machine& machine = kernel_.machine();
  const CostModel& costs = kernel_.costs();
  KernelStats& stats = kernel_.stats();
  uint64_t scanned = 0;
  while (cursor_ < frames_.size() && (max_frames == 0 || scanned < max_frames)) {
    const FrameId id = frames_[cursor_++];
    if (!machine.frames().IsLive(id)) {
      continue;  // freed since the snapshot: nothing left to revoke
    }
    if (!machine.frames().frame(id).HasTags()) {
      continue;  // rank-select fast path: untagged frames cost nothing
    }
    machine.Charge(costs.page_tag_scan);
    ++scanned;
    machine.frames().WritableFrame(id).ForEachTaggedCap([&](uint64_t, Capability& cap) {
      if (!cap.tag()) {
        return;  // an already-stripped record under a set tag bit (frame.h strip idiom)
      }
      for (const auto& [lo, hi] : ranges_) {
        if (cap.OverlapsRange(lo, hi)) {
          cap = cap.Untagged();
          machine.Charge(costs.cap_relocate);
          ++stats.caps_revoked;
          break;
        }
      }
    });
  }
  if (cursor_ < frames_.size()) {
    return true;
  }
  // Pass complete: every frame live at pass start has been scanned against the snapshot
  // ranges, so no tagged capability into them remains loadable. Release them for reuse.
  kernel_.address_space().ReleaseQuarantinedUpTo(pass_generation_);
  in_pass_ = false;
  return pending();
}

void SweepQuarantineToCompletion(Kernel& kernel) {
  RevocationSweeper sweeper(kernel);
  while (sweeper.Step(0)) {
  }
}

Result<void> CheckRevocationInvariant(Kernel& kernel) {
  AddressSpace& as = kernel.address_space();
  FrameAllocator& frames = kernel.machine().frames();
  std::optional<std::string> violation;
  frames.ForEachLive([&](FrameId id, uint32_t) {
    if (violation.has_value()) {
      return;
    }
    if (!frames.frame(id).HasTags()) {
      return;
    }
    frames.WritableFrame(id).ForEachTaggedCap([&](uint64_t offset, Capability& cap) {
      if (violation.has_value() || !cap.tag()) {
        return;
      }
      // Capabilities bounded outside the user area (kernel sentries) are not region-derived.
      if (cap.top() <= as.lo() || cap.base() >= as.hi()) {
        return;
      }
      const auto region = as.RegionContainingWithSize(cap.base());
      if (!region.has_value() || cap.top() > region->first + region->second) {
        violation = "tagged capability " + cap.ToString() + " at frame " +
                    std::to_string(id) + " offset " + std::to_string(offset) +
                    " has bounds outside every allocated region";
      }
    });
  });
  if (violation.has_value()) {
    return Error{Code::kErrInval, *violation};
  }
  return {};
}

}  // namespace ufork
