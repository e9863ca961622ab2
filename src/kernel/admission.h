// AdmissionController: frame-pool watermarks and admission control (DESIGN.md §4.10).
//
// A failed grant rolls back and surfaces as ENOMEM, but nothing anticipates it: under an
// open-loop arrival stream the kernel admits forks until the frame pool runs dry, and then
// every in-flight μprocess starts losing its CoW breaks. The admission controller keys off the
// FrameAllocator free-frame count and refuses *new* μprocess creation (fork/spawn) early with
// EAGAIN, preserving the remaining frames for the μprocesses already running:
//
//                 free < low                        free >= clear
//   ADMITTING ----------------> REJECTING (EAGAIN) ----------------> ADMITTING
//
// The state machine is hysteretic: admission flips to REJECTING when the free count drops
// below the low watermark and recovers only once it climbs back to the clear watermark
// (clear >= low), so a fork/exit churn right at the threshold cannot make admission flap.
// Admission only sheds: a refused caller gets EAGAIN at once and retries on its own schedule
// (the FaaS coordinator and the fork server back off in the guest).
//
// Everything is virtual-time deterministic, and the subsystem is golden-pinned OFF by default:
// with OverloadConfig::enabled == false, Admit() returns at once and charges nothing.
#ifndef UFORK_SRC_KERNEL_ADMISSION_H_
#define UFORK_SRC_KERNEL_ADMISSION_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/mem/frame_allocator.h"

namespace ufork {

struct KernelStats;

// Watermarks are absolute free-frame counts (the natural unit of FrameAllocator::free_frames).
// Invariant when enabled: low <= clear.
struct OverloadConfig {
  bool enabled = false;          // master switch; golden-pinned off
  uint64_t low_watermark = 0;    // free < low: stop admitting new μprocesses
  uint64_t clear_watermark = 0;  // admission recovers only at free >= clear (hysteresis)
};

class AdmissionController {
 public:
  AdmissionController(FrameAllocator& frames, KernelStats& stats)
      : frames_(frames), stats_(stats) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  bool enabled() const { return config_.enabled; }
  bool rejecting() const { return rejecting_; }
  const OverloadConfig& config() const { return config_; }

  // Arms (or disarms) the watermarks at runtime: tests and benches size them against the
  // measured post-boot free count.
  void Configure(const OverloadConfig& config);

  // Runs the hysteresis update against the current free-frame count for one new μprocess
  // creation. Returns EAGAIN, counted in KernelStats::admission_rejected, while REJECTING.
  Result<void> Admit();

 private:
  FrameAllocator& frames_;
  KernelStats& stats_;
  OverloadConfig config_;
  bool rejecting_ = false;  // hysteresis state
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_ADMISSION_H_
