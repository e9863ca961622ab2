// Physical frame allocator with reference counting.
//
// Frames are reference counted so that CoW/CoPA sharing after fork is expressed as
// multiple PTEs mapping one frame. Reference counts also drive the proportional-set-size (PSS)
// residency metric the paper reports (§5.2 "we consider the proportional resident set as the
// memory consumed by a process"). Frame storage is created lazily, so a simulated machine with
// a large physical range costs host memory only for frames actually written: a frame that was
// never written holds no storage and reads as all zero and tag-free (DESIGN.md §4.6).
#ifndef UFORK_SRC_MEM_FRAME_ALLOCATOR_H_
#define UFORK_SRC_MEM_FRAME_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/mem/frame.h"

namespace ufork {

using FrameId = uint64_t;
inline constexpr FrameId kInvalidFrame = ~0ULL;

// Frame-accounting tenant (DESIGN.md §4.10). Every allocated frame is charged to the tenant
// that was current at grant time; per-tenant caps turn one tenant's runaway allocation into
// its own ENOMEM instead of fleet-wide exhaustion. Tenant 0 is the kernel/system tenant and
// can never be capped.
using TenantId = uint32_t;
inline constexpr TenantId kSystemTenant = 0;

class FrameAllocator {
 public:
  // max_frames bounds simulated physical memory (frames * 4 KiB).
  explicit FrameAllocator(uint64_t max_frames);

  FrameAllocator(const FrameAllocator&) = delete;
  FrameAllocator& operator=(const FrameAllocator&) = delete;

  // Allocates a zeroed frame with refcount 1. A fresh slot gets no storage.
  Result<FrameId> Allocate();

  // Allocates a frame with UNSPECIFIED contents (refcount 1) for callers that immediately
  // overwrite the whole page (CopyFrame). Recycled frames skip the redundant re-zero,
  // and their record storage keeps its capacity — the fork/fault copy path allocates nothing
  // in steady state.
  Result<FrameId> AllocateForCopy();

  // Batch form of AllocateForCopy for the fault-around window: fills `out` with fresh
  // unspecified-content frames, or allocates nothing at all (frames already handed out are
  // rolled back) if physical memory cannot cover the whole batch — callers degrade to a
  // single-page window rather than half-resolving one.
  Result<void> AllocateForCopy(std::span<FrameId> out);

  // Increments the sharing count (a new PTE now maps this frame).
  void AddRef(FrameId id) {
    UF_CHECK(IsLive(id));
    ++slots_[id].refcount;
  }

  // Decrements the sharing count; frees the frame when it drops to zero. Exit releases every
  // page and most drop a shared reference, so that decrement is inline.
  void Release(FrameId id) {
    UF_CHECK(id < slots_.size());
    Slot& slot = slots_[id];
    UF_CHECK_MSG(slot.refcount > 0, "Release on a dead frame");
    if (--slot.refcount == 0) {
      Free(id);
    }
  }

  uint32_t RefCount(FrameId id) const;

  // Read view of a live frame: its storage, or the shared all-zero frame if it was never
  // written. Never allocates.
  const Frame& frame(FrameId id) const {
    UF_DCHECK(IsLive(id));
    const Frame* stored = slots_[id].frame.get();
    return stored != nullptr ? *stored : kZeroFrame;
  }

  // Write view of a live frame: a storage-less frame first gets a zeroed Frame. Every writer
  // goes through here, so a read can never allocate.
  Frame& WritableFrame(FrameId id) {
    UF_DCHECK(IsLive(id));
    std::unique_ptr<Frame>& stored = slots_[id].frame;
    if (stored == nullptr) {
      stored = std::make_unique<Frame>();
      ++storage_frames_;
    }
    return *stored;
  }

  // Copies src's data and tags into dst. A storage-less src leaves dst zero without giving it
  // storage.
  void CopyFrame(FrameId dst, FrameId src);

  bool HasStorage(FrameId id) const {
    UF_DCHECK(IsLive(id));
    return slots_[id].frame != nullptr;
  }

  bool IsLive(FrameId id) const { return id < slots_.size() && slots_[id].refcount > 0; }

  uint64_t frames_in_use() const { return frames_in_use_; }
  uint64_t bytes_in_use() const { return frames_in_use() * kPageSize; }
  uint64_t peak_frames() const { return peak_frames_; }
  uint64_t total_allocations() const { return total_allocations_; }
  // Slots holding storage, live or recycled: the frames' host memory is this times a Frame.
  uint64_t storage_frames() const { return storage_frames_; }

  // Watermark inputs (DESIGN.md §4.10): the admission controller keys off the free-frame
  // count, which includes both recycled frames and never-grown slots.
  uint64_t max_frames() const { return max_frames_; }
  uint64_t free_frames() const { return max_frames_ - frames_in_use(); }

  // --- per-tenant charging (DESIGN.md §4.10) ----------------------------------------------------
  //
  // The kernel stamps the current tenant at every kernel entry (SyscallScope) and fault
  // resolution; each grant is charged to that tenant until the frame's last reference drops.
  // AddRef does not re-charge: a CoW-shared frame stays billed to its allocator.

  void set_current_tenant(TenantId tenant) { current_tenant_ = tenant; }
  TenantId current_tenant() const { return current_tenant_; }

  // Caps `tenant` at `max_frames` outstanding frames (0 = remove the cap). Grants beyond the
  // cap fail with kErrNoMem and count in tenant_cap_rejections(). kSystemTenant is uncappable.
  void SetTenantCap(TenantId tenant, uint64_t max_frames);

  uint64_t TenantFrames(TenantId tenant) const;
  bool tenant_caps_active() const { return caps_active_; }
  uint64_t tenant_cap_rejections() const { return tenant_cap_rejections_; }

  // Invokes fn(tenant, frames) for every tenant with outstanding frames, in tenant order.
  void ForEachTenant(const std::function<void(TenantId, uint64_t)>& fn) const {
    for (const auto& [tenant, frames] : tenant_frames_) {
      if (frames > 0) {
        fn(tenant, frames);
      }
    }
  }

  // Invokes fn(id, refcount) for every live frame, in id order. Drives the frame-accounting
  // invariant checker (KernelCore::CheckFrameAccounting).
  void ForEachLive(const std::function<void(FrameId, uint32_t)>& fn) const {
    for (FrameId id = 0; id < slots_.size(); ++id) {
      const uint32_t refs = slots_[id].refcount;
      if (refs > 0) {
        fn(id, refs);
      }
    }
  }

  // Deterministic fault injection (FaultSite::kFrameAlloc / kFrameBatch). Null: disabled.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

 private:
  struct Slot {
    std::unique_ptr<Frame> frame;  // null until first written; kept when the slot is recycled
    uint32_t refcount = 0;
    TenantId tenant = kSystemTenant;  // billing owner while the slot is live
  };

  Result<FrameId> AllocateInternal(bool zero);
  Result<FrameId> TakeFreeId();           // pops a recycled id or grows a fresh slot
  void Free(FrameId id);                  // after the last reference drops
  bool ChargeTenant(TenantId tenant);     // cap check + tentative charge
  void UnchargeTenant(TenantId tenant);

  static const Frame kZeroFrame;  // the read view of every storage-less frame

  uint64_t max_frames_;
  FaultInjector* injector_ = nullptr;
  std::vector<Slot> slots_;
  std::vector<FrameId> free_list_;
  uint64_t frames_in_use_ = 0;
  uint64_t peak_frames_ = 0;
  uint64_t total_allocations_ = 0;
  uint64_t storage_frames_ = 0;
  TenantId current_tenant_ = kSystemTenant;
  std::map<TenantId, uint64_t> tenant_frames_;  // outstanding frames per tenant
  std::map<TenantId, uint64_t> tenant_caps_;    // grant-time ceilings (absent: uncapped)
  bool caps_active_ = false;
  uint64_t tenant_cap_rejections_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_MEM_FRAME_ALLOCATOR_H_
