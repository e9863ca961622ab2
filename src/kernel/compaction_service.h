// Incremental concurrent compaction service (DESIGN.md §4.13).
//
// CompactAddressSpace (src/ufork/compaction.cc) reclaims contiguity in one stop-the-world
// pass — a global pause proportional to the bytes moved, which is exactly what a serving
// fleet's tail latency cannot absorb (bench_overload's p99/p999 gates). This service runs the
// same planner/mover machinery as a low-priority simulated context instead: each quantum it
// takes the kernel lock, advances the in-flight region move by at most
// KernelConfig::compact_budget_pages pages (or a budgeted slice of the revocation sweep),
// records the quantum's duration against pause_cycles_max, and sleeps — mutators run between
// quanta.
//
// Because mutators run while a region is mid-move, the service maintains a forwarding window
// (from/to bases plus the moved-page watermark): raw accesses that miss on the moved-out half
// resolve through Machine's VA forwarder, and syscalls entering from the relocating μprocess
// park on the barrier WaitQueue until the move commits or cancels (SyscallScope::Enter /
// Reacquire). The planner only selects quiescent owners (every thread blocked), so the window
// is observed only by *other* μprocesses — the owner itself resumes after the move, at its new
// base, through the barrier.
//
// The kernel layer knows nothing about backend relocation mechanics: the μFork planner/mover
// lives in src/ufork/compaction.cc and is installed as a CompactionEngine by MakeUforkKernel.
// Kernels without an engine (MAS, VM-clone) simply never run the service.
#ifndef UFORK_SRC_KERNEL_COMPACTION_SERVICE_H_
#define UFORK_SRC_KERNEL_COMPACTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "src/sched/scheduler.h"
#include "src/sched/task.h"

namespace ufork {

class KernelCore;
class Uproc;

// One in-flight region move, advanced a budgeted number of pages at a time. Implementations
// live with the fork backend: they own the remap/relocate mechanics and must keep the region
// recoverable whole-at-one-base after every Step or Cancel.
class RegionMover {
 public:
  enum class Status {
    kMoving,     // pages remain; the forwarding window covers the moved prefix
    kCommitted,  // region now lives wholly at to_base; the old range is freed or quarantined
    kAborted,    // move rolled back; region lives wholly at from_base again
  };

  virtual ~RegionMover() = default;

  virtual uint64_t from_base() const = 0;
  virtual uint64_t to_base() const = 0;
  virtual uint64_t size() const = 0;
  virtual uint64_t moved_pages() const = 0;

  // Moves up to `budget_pages` further pages (0 = unbounded, the stop-the-world case).
  virtual Status Step(uint64_t budget_pages) = 0;

  // Rolls the move back so the region is whole at from_base. Valid only while kMoving.
  virtual void Cancel() = 0;

  // If `page_va` lies in the already-moved prefix of the source half, returns the equivalent
  // destination address; nullopt otherwise.
  virtual std::optional<uint64_t> ForwardVa(uint64_t page_va) const = 0;
};

// Backend-specific compaction planning and revocation sweeping.
class CompactionEngine {
 public:
  virtual ~CompactionEngine() = default;

  // Plans the next profitable region move and grants its target range; nullptr when the
  // current planning pass has considered every candidate. `require_quiescent` restricts
  // candidates to μprocesses whose every thread is blocked; `batched_remap` selects the
  // batched PTE-update cost for multi-page chunks (the incremental path).
  virtual std::unique_ptr<RegionMover> NextMove(bool require_quiescent,
                                                bool batched_remap) = 0;

  // Restarts planning from the lowest base (a new pass over the movable list).
  virtual void ResetPass() = 0;

  // Advances the budgeted revocation sweep by at most `max_frames` tagged frames. Returns
  // true while quarantined ranges remain unswept.
  virtual bool SweepStep(uint64_t max_frames) = 0;
  virtual bool SweepPending() const = 0;
};

// Fragmentation-pressure trigger, mirroring the admission watermarks (DESIGN.md §4.10):
// region churn arms the service once slot fragmentation — the fraction of region-aligned
// allocation slots below the high-water region holding no live region
// (AddressSpace::SlotFragmentation) — crosses arm_fragmentation; a completed pass disarms
// once it falls below clear_fragmentation.
struct CompactionTriggerConfig {
  bool enabled = false;
  double arm_fragmentation = 0.5;
  double clear_fragmentation = 0.25;
};

// Snapshot of the in-flight move's forwarding window (tests, diagnostics).
struct RelocationWindow {
  uint64_t from_base = 0;
  uint64_t to_base = 0;
  uint64_t size = 0;
  uint64_t moved_pages = 0;
};

class CompactionService {
 public:
  explicit CompactionService(KernelCore& core);
  ~CompactionService();

  CompactionService(const CompactionService&) = delete;
  CompactionService& operator=(const CompactionService&) = delete;

  void InstallEngine(std::unique_ptr<CompactionEngine> engine);

  // Arms the service unconditionally and spawns the background context if it is not already
  // running. Returns false when incremental compaction is unavailable (no engine installed,
  // or compact_budget_pages == 0).
  bool Kick();

  // Region-churn hook (ReleaseUprocMemory): evaluates the fragmentation trigger and starts
  // the service when pressure — or a quarantine sweep backlog — warrants it.
  void OnRegionChurn();

  // True when `base` is the source base of the in-flight move: syscalls entered from that
  // region must park until the move completes. Hot path: one load and compare (user region
  // bases are ≥ kUserBase, so 0 doubles as "no move in flight").
  bool NeedsBarrier(uint64_t base) const { return relocating_base_ == base; }

  // Parks the caller until the move over its region commits or cancels.
  SimTask<void> BarrierOn(const Uproc& caller);

  // SIGKILL teardown: if `uproc`'s region is mid-move, cancels and rolls back synchronously
  // on the killer's thread and wakes barrier waiters, so teardown never sees a region split
  // across two bases.
  void CancelMoveFor(const Uproc& uproc);

  std::optional<RelocationWindow> CurrentMove() const;
  bool active() const { return running_; }

  // Machine VA-forwarder hook: moved-prefix source addresses resolve to the destination half.
  std::optional<uint64_t> ForwardVa(uint64_t page_va) const;

 private:
  SimTask<void> RunService();
  void EnsureRunning();
  void FinishMove(bool committed);
  bool TriggerWants() const;

  KernelCore& core_;
  WaitQueue barrier_;
  std::unique_ptr<CompactionEngine> engine_;
  std::unique_ptr<RegionMover> mover_;
  uint64_t relocating_base_ = 0;  // source base of the in-flight move; 0 = none
  bool armed_ = false;
  bool running_ = false;
  bool moved_any_this_pass_ = false;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_COMPACTION_SERVICE_H_
