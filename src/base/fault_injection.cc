#include "src/base/fault_injection.h"

#include <charconv>

namespace ufork {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kFrameAlloc:
      return "frame-alloc";
    case FaultSite::kFrameBatch:
      return "frame-batch";
    case FaultSite::kRegionGrant:
      return "region-grant";
    case FaultSite::kCompactTarget:
      return "compact-target";
    case FaultSite::kCompactRelocate:
      return "compact-relocate";
    case FaultSite::kPipeReserve:
      return "pipe-reserve";
    case FaultSite::kPipeGrow:
      return "pipe-grow";
    case FaultSite::kMqReserve:
      return "mq-reserve";
    case FaultSite::kMqGrow:
      return "mq-grow";
    case FaultSite::kVfsGrow:
      return "vfs-grow";
    case FaultSite::kPageCacheFill:
      return "page-cache-fill";
    case FaultSite::kLazyFillAlloc:
      return "lazy-fill-alloc";
    case FaultSite::kCompactStep:
      return "compact-step";
    case FaultSite::kRevokeSweep:
      return "revoke-sweep";
    case FaultSite::kNumSites:
      break;
  }
  return "?";
}

Result<FaultPolicy> FaultPolicy::Parse(std::string_view spec) {
  if (spec == "oneshot") {
    return OneShot();
  }
  const size_t eq = spec.find('=');
  if (eq == std::string_view::npos) {
    return Error{Code::kErrInval, "fault policy: expected nth=K, after=N, prob=P or oneshot"};
  }
  const std::string_view key = spec.substr(0, eq);
  const std::string_view value = spec.substr(eq + 1);
  const char* const first = value.data();
  const char* const last = value.data() + value.size();
  if (key == "nth" || key == "after") {
    uint64_t n = 0;
    const auto [ptr, ec] = std::from_chars(first, last, n);
    if (ec != std::errc() || ptr != last) {
      return Error{Code::kErrInval, "fault policy: bad count"};
    }
    if (key == "nth" && n == 0) {
      return Error{Code::kErrInval, "fault policy: nth is 1-based"};
    }
    return key == "nth" ? Nth(n) : AfterBudget(n);
  }
  if (key == "prob") {
    double p = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, p);
    if (ec != std::errc() || ptr != last || p < 0.0 || p > 1.0) {
      return Error{Code::kErrInval, "fault policy: probability must be in [0, 1]"};
    }
    return Probabilistic(p);
  }
  return Error{Code::kErrInval, "fault policy: unknown key"};
}

void FaultInjector::Arm(FaultSite site, FaultPolicy policy, uint64_t seed) {
  Slot& slot = SlotOf(site);
  if (!slot.armed) {
    ++armed_count_;
  }
  slot.armed = true;
  slot.policy = policy;
  slot.hits = 0;
  slot.failures = 0;
  if (policy.kind == FaultPolicy::Kind::kProbabilistic) {
    // Independent stream per site: a single master seed replays every site's schedule.
    slot.rng.emplace(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(site) + 1)));
  } else {
    slot.rng.reset();
  }
}

void FaultInjector::ArmAll(FaultPolicy policy, uint64_t seed) {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    Arm(static_cast<FaultSite>(i), policy, seed);
  }
}

void FaultInjector::Disarm(FaultSite site) {
  Slot& slot = SlotOf(site);
  if (slot.armed) {
    --armed_count_;
  }
  slot.armed = false;
  slot.rng.reset();
}

void FaultInjector::DisarmAll() {
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    Disarm(static_cast<FaultSite>(i));
  }
}

uint64_t FaultInjector::total_failures() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    total += slot.failures;
  }
  return total;
}

bool FaultInjector::ShouldFailSlow(FaultSite site) {
  Slot& slot = SlotOf(site);
  if (!slot.armed) {
    return false;
  }
  ++slot.hits;
  bool fail = false;
  switch (slot.policy.kind) {
    case FaultPolicy::Kind::kNth:
      fail = slot.hits == slot.policy.n;
      break;
    case FaultPolicy::Kind::kAfterBudget:
      fail = slot.hits > slot.policy.n;
      break;
    case FaultPolicy::Kind::kProbabilistic:
      fail = slot.rng->NextDouble() < slot.policy.p;
      break;
    case FaultPolicy::Kind::kOneShot:
      fail = true;
      Disarm(site);
      ++slot.failures;  // Disarm cleared armed, not the counters; count before returning
      return true;
  }
  if (fail) {
    ++slot.failures;
  }
  return fail;
}

}  // namespace ufork
