// AdmissionController: frame-pool watermarks, admission control and backpressure
// (DESIGN.md §4.10).
//
// Overload today (PR 5) is *contained* — a failed grant rolls back and surfaces as ENOMEM —
// but nothing anticipates it: under an open-loop arrival stream the kernel admits forks until
// the frame pool runs dry, and then every in-flight μprocess starts losing its CoW breaks.
// The admission controller keys off the FrameAllocator free-frame count and refuses *new*
// μprocess creation (ufork/spawn/vmclone) early, preserving the remaining frames for the
// μprocesses already running:
//
//             free >= clear          low > free >= critical         critical > free
//   ADMITTING ────────────► ◄──────── REJECTING (park) ──────────► REJECTING (EAGAIN)
//
// The state machine is hysteretic: admission flips to REJECTING when the free count drops
// below the low watermark and recovers only once it climbs back above the clear watermark
// (clear >= low), so a fork/exit churn right at the threshold cannot make admission flap.
// While REJECTING, would-be forkers either park on a bounded backpressure queue (max_parked)
// that is drained as frames free, or — below the critical watermark, or when the queue is
// full, or with parking disabled — fail immediately with EAGAIN.
//
// Drain policy (aging, replaces the original single-FIFO drain): parked forkers queue
// per-tenant, FIFO within a tenant, and a recovery drains them oldest-parked-first *within*
// each tenant while round-robining *across* tenants — a tenant that parks a thundering herd
// can no longer starve a single parked forker from another tenant, because each RR pass
// releases at most one waiter per tenant. The round-robin cursor persists across drains, so
// fairness is long-run, not just per-recovery. KernelStats::parked_wait_cycles_max records
// the worst park-to-resume latency in virtual cycles (aging observability).
//
// Everything is virtual-time deterministic, and the whole subsystem is golden-pinned OFF by
// default: with OverloadConfig::enabled == false, Evaluate() is never consulted, and the
// release hook KernelCore always installs returns at once from OnFramesFreed (it charges
// nothing), leaving every virtual cycle bit-identical to the historical kernel.
#ifndef UFORK_SRC_KERNEL_ADMISSION_H_
#define UFORK_SRC_KERNEL_ADMISSION_H_

#include <cstdint>
#include <map>
#include <memory>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/mem/frame_allocator.h"
#include "src/sched/scheduler.h"
#include "src/sched/task.h"

namespace ufork {

struct KernelStats;

// Watermarks are absolute free-frame counts (the natural unit of FrameAllocator::free_frames).
// Invariant when enabled: critical <= low <= clear.
struct OverloadConfig {
  bool enabled = false;           // master switch; golden-pinned off
  uint64_t low_watermark = 0;     // free < low: stop admitting new μprocesses
  uint64_t critical_watermark = 0;  // free < critical: reject immediately, never park
  uint64_t clear_watermark = 0;   // admission recovers only at free >= clear (hysteresis)
  uint64_t max_parked = 0;        // backpressure queue bound (total, all tenants); 0 = EAGAIN
};

class AdmissionController {
 public:
  enum class Decision : uint8_t { kAdmit, kPark, kReject };

  AdmissionController(Scheduler& sched, FrameAllocator& frames, KernelStats& stats,
                      const OverloadConfig& config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool enabled() const { return config_.enabled; }
  bool rejecting() const { return rejecting_; }
  uint64_t parked() const;
  const OverloadConfig& config() const { return config_; }

  // Re-arms the watermarks at runtime (tests and benches size them against the measured
  // post-boot free count; KernelConfig carries the boot-time values).
  void Configure(const OverloadConfig& config);

  // Runs the hysteresis update against the current free-frame count and decides the fate of
  // one new μprocess creation. kReject is already counted in stats; the caller returns EAGAIN.
  Decision Evaluate();

  // Backpressure: parks the calling thread on its tenant's drain queue until frames free up
  // and admission recovers. The caller must NOT hold a kernel lock (SyscallScope::Leave
  // first) and must re-Evaluate() after resuming — a woken forker re-contends like everyone
  // else. Parked threads that are killed never resume; their TCBs stay inspectable (the
  // scheduler skips kDone waiters), so the queue needs no external cleanup.
  SimTask<void> ParkUntilDrained(TenantId tenant);

  // Frame-release hook (wired by KernelCore when enabled): re-evaluates the watermarks and
  // drains the park queues once the free count clears the hysteresis threshold.
  void OnFramesFreed();

 private:
  void UpdateState(uint64_t free);
  WaitQueue& QueueFor(TenantId tenant);
  // The next non-empty tenant queue at or after the RR cursor, advancing the cursor past the
  // chosen tenant. Null when every queue is drained.
  WaitQueue* NextNonEmpty();
  void Drain();

  Scheduler& sched_;
  FrameAllocator& frames_;
  KernelStats& stats_;
  OverloadConfig config_;
  // Per-tenant park queues, FIFO within each (unique_ptr: a WaitQueue cannot move). Entries
  // are never erased, so queue addresses stay stable across suspensions.
  std::map<TenantId, std::unique_ptr<WaitQueue>> queues_;
  TenantId rr_cursor_ = 0;  // drain resumes the round-robin at this tenant
  bool rejecting_ = false;  // hysteresis state
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_ADMISSION_H_
