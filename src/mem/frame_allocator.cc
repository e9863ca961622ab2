#include "src/mem/frame_allocator.h"

#include <algorithm>

namespace ufork {

const Frame FrameAllocator::kZeroFrame;

FrameAllocator::FrameAllocator(uint64_t max_frames) : max_frames_(max_frames) {}

Result<FrameId> FrameAllocator::Allocate() { return AllocateInternal(/*zero=*/true); }

Result<FrameId> FrameAllocator::AllocateForCopy() { return AllocateInternal(/*zero=*/false); }

Result<void> FrameAllocator::AllocateForCopy(std::span<FrameId> out) {
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kFrameBatch)) {
    return Error{Code::kErrNoMem, "out of physical frames (injected batch failure)"};
  }
  for (size_t i = 0; i < out.size(); ++i) {
    auto frame = AllocateInternal(/*zero=*/false);
    if (!frame.ok()) {
      for (size_t j = 0; j < i; ++j) {
        Release(out[j]);
        --total_allocations_;  // batch never happened
      }
      return frame.error();
    }
    out[i] = *frame;
  }
  return OkResult();
}

Result<FrameId> FrameAllocator::AllocateInternal(bool zero) {
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kFrameAlloc)) {
    return Error{Code::kErrNoMem, "out of physical frames (injected)"};
  }
  const TenantId tenant = current_tenant();
  if (caps_active_) [[unlikely]] {
    if (!ChargeTenant(tenant)) {
      ++tenant_cap_rejections_;
      return Error{Code::kErrNoMem,
                   "tenant " + std::to_string(tenant) + " frame cap exceeded"};
    }
  } else {
    ++tenant_frames_[tenant];
  }
  auto id_or = TakeFreeId();
  if (!id_or.ok()) {
    UnchargeTenant(tenant);
    return id_or.error();
  }
  const FrameId id = *id_or;
  Slot& slot = slots_[id];
  if (zero && slot.frame != nullptr) {
    slot.frame->Reset();  // recycled storage; a storage-less slot already reads as zero
  }
  slot.tenant = tenant;
  slot.refcount = 1;
  ++frames_in_use_;
  ++total_allocations_;
  peak_frames_ = std::max(peak_frames_, frames_in_use_);
  return id;
}

Result<FrameId> FrameAllocator::TakeFreeId() {
  if (!free_list_.empty()) {
    const FrameId id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  if (slots_.size() >= max_frames_) {
    return Error{Code::kErrNoMem, "out of physical frames"};
  }
  const FrameId id = slots_.size();
  slots_.emplace_back();
  return id;
}

void FrameAllocator::Free(FrameId id) {
  --frames_in_use_;
  UnchargeTenant(slots_[id].tenant);
  free_list_.push_back(id);
}

void FrameAllocator::CopyFrame(FrameId dst, FrameId src) {
  UF_DCHECK(IsLive(dst) && IsLive(src));
  const Frame* from = slots_[src].frame.get();
  if (from != nullptr) {
    WritableFrame(dst).CopyFrom(*from);
  } else if (Frame* to = slots_[dst].frame.get(); to != nullptr) {
    to->Reset();
  }
}

uint32_t FrameAllocator::RefCount(FrameId id) const {
  UF_CHECK(id < slots_.size());
  return slots_[id].refcount;
}

bool FrameAllocator::ChargeTenant(TenantId tenant) {
  auto cap = tenant_caps_.find(tenant);
  uint64_t& charged = tenant_frames_[tenant];
  if (cap != tenant_caps_.end() && charged >= cap->second) {
    return false;
  }
  ++charged;
  return true;
}

void FrameAllocator::UnchargeTenant(TenantId tenant) {
  auto charged = tenant_frames_.find(tenant);
  UF_DCHECK(charged != tenant_frames_.end() && charged->second > 0);
  --charged->second;
}

void FrameAllocator::SetTenantCap(TenantId tenant, uint64_t max_frames) {
  UF_CHECK_MSG(tenant != kSystemTenant, "the system tenant cannot be capped");
  if (max_frames == 0) {
    tenant_caps_.erase(tenant);
  } else {
    tenant_caps_[tenant] = max_frames;
  }
  caps_active_ = !tenant_caps_.empty();
}

uint64_t FrameAllocator::TenantFrames(TenantId tenant) const {
  auto it = tenant_frames_.find(tenant);
  return it == tenant_frames_.end() ? 0 : it->second;
}

}  // namespace ufork
