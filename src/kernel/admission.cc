#include "src/kernel/admission.h"

#include "src/base/check.h"
#include "src/kernel/kernel_core.h"

namespace ufork {

void AdmissionController::Configure(const OverloadConfig& config) {
  if (config.enabled) {
    UF_CHECK_MSG(config.low_watermark <= config.clear_watermark,
                 "overload watermarks must satisfy low <= clear");
  }
  config_ = config;
  if (!config_.enabled) {
    rejecting_ = false;
  }
}

Result<void> AdmissionController::Admit() {
  if (!config_.enabled) {
    return OkResult();
  }
  const uint64_t free = frames_.free_frames();
  if (!rejecting_ && free < config_.low_watermark) {
    rejecting_ = true;
    ++stats_.admission_trips;
  } else if (rejecting_ && free >= config_.clear_watermark) {
    rejecting_ = false;
  }
  if (!rejecting_) {
    return OkResult();
  }
  ++stats_.admission_rejected;
  return Error{Code::kErrAgain, "admission control: free frames below the low watermark"};
}

}  // namespace ufork
