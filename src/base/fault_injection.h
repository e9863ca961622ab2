// Deterministic fault injection for the resource layers.
//
// μFork's robustness claim is that a mid-operation resource failure — a frame allocation
// failing halfway through a fork, a region grant failing during compaction — is contained to
// one μprocess and fully rolled back. Those paths are unreachable under normal test loads
// (physical memory is sized generously), so this registry makes them reachable *on demand and
// deterministically*: named injection sites in the allocators and IPC buffers consult an armed
// policy, and every failure schedule is replayable from a (site, policy, seed) triple.
//
// Policy grammar (DESIGN.md §4.9): a site is armed with one of
//   nth=K      fail exactly the K-th hit (1-based), succeed before and after
//   after=N    budget: the first N hits succeed, every later hit fails
//   prob=P     each hit fails with probability P, drawn from a per-site Rng seeded with
//              splitmix64(seed ^ site) — one master seed yields independent per-site streams
//   oneshot    fail the next hit, then disarm
//
// Hot-path contract: ShouldFail() with nothing armed is a single load-and-branch on
// `armed_count_` and never charges virtual cycles, so compiling the registry in leaves the
// golden cycle pins bit-identical (regression-tested in tests/golden_cycles_test.cc).
#ifndef UFORK_SRC_BASE_FAULT_INJECTION_H_
#define UFORK_SRC_BASE_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "src/base/rng.h"
#include "src/base/status.h"

namespace ufork {

// Named injection sites, one per fallible resource acquisition the kernel performs. Sites are
// identified by enumerator (stable across runs), never by address.
enum class FaultSite : uint32_t {
  kFrameAlloc = 0,   // FrameAllocator::AllocateInternal — every single-frame allocation
  kFrameBatch,       // FrameAllocator::AllocateForCopy(span) — batch entry (fault-around)
  kRegionGrant,      // AddressSpace::AllocateRegion — fork/spawn region reservation
  kCompactTarget,    // AddressSpace::AllocateRegionAt — compaction target placement
  kCompactRelocate,  // per-page capability relocation during a compaction move
  kPipeReserve,      // pipe(2) ring-buffer reservation
  kPipeGrow,         // per-chunk pipe buffer commit inside write
  kMqReserve,        // mq_open queue creation
  kMqGrow,           // per-chunk mqueue message-buffer growth inside send
  kVfsGrow,          // per-block ramdisk inode growth inside write
  kPageCacheFill,    // PageCache::GetFrame read-through fill (frame for a file page)
  kLazyFillAlloc,    // demand-fill frame allocation at fault time (zero-fill window entry)
  kCompactStep,      // CompactionService quantum entry — a hit cancels the in-flight move
  kRevokeSweep,      // revocation sweep quantum — a hit defers the scan, quarantine intact
  kNumSites,
};

inline constexpr size_t kNumFaultSites = static_cast<size_t>(FaultSite::kNumSites);

const char* FaultSiteName(FaultSite site);

struct FaultPolicy {
  enum class Kind { kNth, kAfterBudget, kProbabilistic, kOneShot };

  Kind kind = Kind::kOneShot;
  uint64_t n = 0;   // kNth: the failing hit (1-based); kAfterBudget: hits that succeed
  double p = 0.0;   // kProbabilistic: per-hit failure probability

  static FaultPolicy Nth(uint64_t nth) { return {Kind::kNth, nth, 0.0}; }
  static FaultPolicy AfterBudget(uint64_t budget) { return {Kind::kAfterBudget, budget, 0.0}; }
  static FaultPolicy Probabilistic(double probability) {
    return {Kind::kProbabilistic, 0, probability};
  }
  static FaultPolicy OneShot() { return {Kind::kOneShot, 0, 0.0}; }

  // Parses the policy grammar above ("nth=3", "after=10", "prob=0.05", "oneshot").
  static Result<FaultPolicy> Parse(std::string_view spec);
};

class FaultInjector {
 public:
  FaultInjector() = default;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms `site` with `policy`. `seed` matters only for probabilistic policies; the per-site
  // stream is Rng(splitmix-style mix of seed and site) so one master seed replays everywhere.
  void Arm(FaultSite site, FaultPolicy policy, uint64_t seed = 0);
  // Arms every site with the same policy/seed (chaos soak).
  void ArmAll(FaultPolicy policy, uint64_t seed = 0);
  void Disarm(FaultSite site);
  void DisarmAll();

  bool armed(FaultSite site) const { return SlotOf(site).armed; }
  bool any_armed() const { return armed_count_ > 0; }

  // The injection hook. With nothing armed this is one load and branch; armed sites count
  // the hit and evaluate the policy. Never charges virtual cycles.
  bool ShouldFail(FaultSite site) {
    if (armed_count_ == 0) [[likely]] {
      return false;
    }
    return ShouldFailSlow(site);
  }

  // Observability (tests assert on these; the chaos soak logs them per seed).
  uint64_t hits(FaultSite site) const { return SlotOf(site).hits; }
  uint64_t failures(FaultSite site) const { return SlotOf(site).failures; }
  uint64_t total_failures() const;

 private:
  struct Slot {
    bool armed = false;
    FaultPolicy policy;
    std::optional<Rng> rng;  // probabilistic policies only
    uint64_t hits = 0;       // counted only while armed
    uint64_t failures = 0;
  };

  Slot& SlotOf(FaultSite site) { return slots_[static_cast<size_t>(site)]; }
  const Slot& SlotOf(FaultSite site) const { return slots_[static_cast<size_t>(site)]; }

  bool ShouldFailSlow(FaultSite site);

  std::array<Slot, kNumFaultSites> slots_{};
  uint32_t armed_count_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_BASE_FAULT_INJECTION_H_
