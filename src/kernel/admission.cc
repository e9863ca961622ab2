#include "src/kernel/admission.h"

#include <algorithm>
#include <iterator>

#include "src/base/check.h"
#include "src/kernel/kernel_core.h"

namespace ufork {

AdmissionController::AdmissionController(Scheduler& sched, FrameAllocator& frames,
                                         KernelStats& stats, const OverloadConfig& config)
    : sched_(sched), frames_(frames), stats_(stats) {
  Configure(config);
}

void AdmissionController::Configure(const OverloadConfig& config) {
  if (config.enabled) {
    UF_CHECK_MSG(config.critical_watermark <= config.low_watermark &&
                     config.low_watermark <= config.clear_watermark,
                 "overload watermarks must satisfy critical <= low <= clear");
  }
  config_ = config;
  if (!config_.enabled) {
    rejecting_ = false;
    Drain();
  }
}

uint64_t AdmissionController::parked() const {
  uint64_t total = 0;
  for (const auto& [tenant, queue] : queues_) {
    total += queue->size();
  }
  return total;
}

void AdmissionController::UpdateState(uint64_t free) {
  if (!rejecting_ && free < config_.low_watermark) {
    rejecting_ = true;
    ++stats_.admission_trips;
  } else if (rejecting_ && free >= config_.clear_watermark) {
    rejecting_ = false;
  }
}

AdmissionController::Decision AdmissionController::Evaluate() {
  UF_DCHECK(config_.enabled);
  const uint64_t free = frames_.free_frames();
  UpdateState(free);
  if (!rejecting_) {
    return Decision::kAdmit;
  }
  uint64_t total_parked = 0;
  for (const auto& [tenant, queue] : queues_) {
    total_parked += queue->size();
  }
  if (free >= config_.critical_watermark && total_parked < config_.max_parked) {
    return Decision::kPark;
  }
  ++stats_.admission_rejected;
  return Decision::kReject;
}

WaitQueue& AdmissionController::QueueFor(TenantId tenant) {
  auto it = queues_.find(tenant);
  if (it == queues_.end()) {
    it = queues_.emplace(tenant, std::make_unique<WaitQueue>(sched_)).first;
  }
  return *it->second;
}

SimTask<void> AdmissionController::ParkUntilDrained(TenantId tenant) {
  ++stats_.admission_parked;
  const Cycles parked_at = sched_.Now();
  co_await QueueFor(tenant).Wait();
  ++stats_.admission_resumed;
  // Measured frame-locally: a parked forker that is killed never resumes, never updates the
  // max, and never leaves a dangling reference behind.
  stats_.parked_wait_cycles_max =
      std::max(stats_.parked_wait_cycles_max, sched_.Now() - parked_at);
}

WaitQueue* AdmissionController::NextNonEmpty() {
  if (queues_.empty()) {
    return nullptr;
  }
  auto it = queues_.lower_bound(rr_cursor_);
  for (size_t i = 0; i <= queues_.size(); ++i) {
    if (it == queues_.end()) {
      it = queues_.begin();
    }
    if (!it->second->empty()) {
      auto next = std::next(it);
      rr_cursor_ = next == queues_.end() ? 0 : next->first;
      return it->second.get();
    }
    ++it;
  }
  return nullptr;
}

void AdmissionController::Drain() {
  // Aging drain: oldest-parked-first within a tenant (each queue is FIFO), one waiter per
  // tenant per round-robin pass across tenants. Every parked forker is woken — the policy
  // decides *order*, and order is what re-contention fairness hangs on: woken forkers
  // re-Evaluate() in wake order, so under a pool that only partially recovered the RR
  // interleave gives every tenant a shot before any tenant's second waiter.
  for (WaitQueue* queue = NextNonEmpty(); queue != nullptr; queue = NextNonEmpty()) {
    queue->Wake(1);
  }
}

void AdmissionController::OnFramesFreed() {
  if (!rejecting_) {
    return;
  }
  bool any_parked = false;
  for (const auto& [tenant, queue] : queues_) {
    if (!queue->empty()) {
      any_parked = true;
      break;
    }
  }
  if (!any_parked) {
    return;
  }
  UpdateState(frames_.free_frames());
  if (!rejecting_) {
    Drain();
  }
}

}  // namespace ufork
