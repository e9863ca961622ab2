#include "src/kernel/compaction_service.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/base/fault_injection.h"
#include "src/kernel/kernel_core.h"

namespace ufork {

namespace {
// Tagged frames scanned per revocation-sweep quantum. The sweep shares the mover's
// bounded-pause contract, so its slice is a fixed budget rather than proportional to the
// quarantine backlog.
constexpr uint64_t kSweepFramesPerQuantum = 32;
}  // namespace

CompactionService::CompactionService(KernelCore& core)
    : core_(core), barrier_(core.sched()) {
  barrier_.set_resume_delay(core_.config().costs.sched_wakeup);
  core_.machine().set_va_forwarder([this](uint64_t page_va) { return ForwardVa(page_va); });
}

CompactionService::~CompactionService() = default;

void CompactionService::InstallEngine(std::unique_ptr<CompactionEngine> engine) {
  engine_ = std::move(engine);
}

bool CompactionService::Kick() {
  if (engine_ == nullptr || core_.config().compact_budget_pages == 0) {
    return false;
  }
  armed_ = true;
  engine_->ResetPass();  // a fresh arming always sweeps the whole arena from the bottom
  EnsureRunning();
  return true;
}

void CompactionService::OnRegionChurn() {
  if (engine_ == nullptr || core_.config().compact_budget_pages == 0) {
    return;
  }
  if (!armed_ && TriggerWants()) {
    armed_ = true;
    engine_->ResetPass();
  }
  if (armed_ || engine_->SweepPending()) {
    EnsureRunning();
  }
}

bool CompactionService::TriggerWants() const {
  const CompactionTriggerConfig& trigger = core_.config().compact_trigger;
  if (!trigger.enabled) {
    return false;
  }
  // Pressure = fragmentation over the kRegionAlign allocation slots below the high-water
  // region. ExternalFragmentation would not do here: the arena's untouched tail keeps it
  // within epsilon of zero no matter how many holes exits punch in the occupied floor.
  return core_.address_space().SlotFragmentation(2 * kMiB) >= trigger.arm_fragmentation;
}

void CompactionService::EnsureRunning() {
  if (running_) {
    return;
  }
  running_ = true;
  core_.sched().Spawn(RunService(), "compactd");
}

SimTask<void> CompactionService::RunService() {
  Scheduler& sched = core_.sched();
  KernelStats& stats = core_.stats();
  const uint64_t budget = core_.config().compact_budget_pages;
  for (;;) {
    VirtualLock* lock = core_.kernel_lock();
    if (lock != nullptr) {
      co_await lock->Acquire();
    }
    const Cycles quantum_start = sched.Now();
    if (core_.fault_injector().ShouldFail(FaultSite::kCompactStep)) {
      // Degrade, don't abort the service: the quantum's work is cancelled — an in-flight
      // move rolls back whole-to-one-base — and planning resumes at the next quantum.
      if (mover_ != nullptr) {
        mover_->Cancel();
        FinishMove(/*committed=*/false);
      }
    } else if (mover_ != nullptr) {
      const RegionMover::Status status = mover_->Step(budget);
      ++stats.compact_steps;
      if (status != RegionMover::Status::kMoving) {
        FinishMove(status == RegionMover::Status::kCommitted);
      }
    } else if (engine_->SweepPending()) {
      engine_->SweepStep(kSweepFramesPerQuantum);
      ++stats.compact_steps;
    } else if (armed_) {
      mover_ = engine_->NextMove(/*require_quiescent=*/true, /*batched_remap=*/true);
      if (mover_ != nullptr) {
        relocating_base_ = mover_->from_base();
      } else {
        // Pass exhausted. Re-pass while moves keep landing and pressure persists; otherwise
        // disarm until the next region churn re-arms the trigger.
        const CompactionTriggerConfig& trigger = core_.config().compact_trigger;
        const bool still_pressured =
            !trigger.enabled || core_.address_space().SlotFragmentation(2 * kMiB) >
                                    trigger.clear_fragmentation;
        if (moved_any_this_pass_ && still_pressured) {
          engine_->ResetPass();
          moved_any_this_pass_ = false;
        } else {
          armed_ = false;
        }
      }
    }
    stats.pause_cycles_max = std::max(stats.pause_cycles_max, sched.Now() - quantum_start);
    if (lock != nullptr) {
      lock->Release();
    }
    if (!armed_ && mover_ == nullptr && !engine_->SweepPending()) {
      break;
    }
    co_await sched.Sleep(core_.config().compact_step_interval);
  }
  running_ = false;
  co_return;
}

void CompactionService::FinishMove(bool committed) {
  mover_.reset();
  relocating_base_ = 0;
  if (committed) {
    ++core_.stats().compact_regions_moved;
    moved_any_this_pass_ = true;
  }
  barrier_.WakeAll();
}

SimTask<void> CompactionService::BarrierOn(const Uproc& caller) {
  while (NeedsBarrier(caller.base)) {
    ++core_.stats().compact_parked;
    co_await barrier_.Wait();
  }
}

void CompactionService::CancelMoveFor(const Uproc& uproc) {
  if (mover_ != nullptr && mover_->from_base() == uproc.base) {
    mover_->Cancel();
    FinishMove(/*committed=*/false);
  }
}

std::optional<RelocationWindow> CompactionService::CurrentMove() const {
  if (mover_ == nullptr) {
    return std::nullopt;
  }
  return RelocationWindow{mover_->from_base(), mover_->to_base(), mover_->size(),
                          mover_->moved_pages()};
}

std::optional<uint64_t> CompactionService::ForwardVa(uint64_t page_va) const {
  if (mover_ == nullptr) {
    return std::nullopt;
  }
  return mover_->ForwardVa(page_va);
}

}  // namespace ufork
