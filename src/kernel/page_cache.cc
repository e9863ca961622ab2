#include "src/kernel/page_cache.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace ufork {

Result<FrameId> PageCache::GetFrame(const std::shared_ptr<RamFs::Inode>& inode,
                                    uint64_t page_index) {
  const auto key = std::make_pair(static_cast<const void*>(inode.get()), page_index);
  auto it = pages_.find(key);
  if (it != pages_.end()) {
    ++hits_;
    machine_.frames().AddRef(it->second.frame);
    return it->second.frame;
  }
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kPageCacheFill)) {
    return Error{Code::kErrNoMem, "page cache fill failed (injected)"};
  }
  // Read-through fill: a zeroed frame (tail past EOF stays zero) loaded with the inode's
  // current bytes. One I/O-shaped transfer per fill; hits are free — the cache IS the
  // footprint/throughput trade the fleet benchmarks measure.
  UF_ASSIGN_OR_RETURN(const FrameId frame, machine_.frames().Allocate());
  // Pages and ramdisk blocks are both 4 KiB and aligned: page i is block i.
  static_assert(kVfsBlockSize == kPageSize);
  uint64_t copied = 0;
  const uint64_t off = page_index * kPageSize;
  if (off < inode->size) {
    copied = std::min<uint64_t>(kPageSize, inode->size - off);
    machine_.frames().WritableFrame(frame).Write(
        0, std::span(inode->blocks[page_index]->data(), copied));
  }
  machine_.Charge(machine_.costs().frame_alloc + machine_.costs().VfsTransfer(copied));
  ++fills_;
  pages_.emplace(key, Entry{frame, inode});
  machine_.frames().AddRef(frame);  // caller's reference; the Allocate ref stays with us
  return frame;
}

uint64_t PageCache::EvictInode(const void* inode_key) {
  uint64_t dropped = 0;
  auto it = pages_.lower_bound(std::make_pair(inode_key, uint64_t{0}));
  while (it != pages_.end() && it->first.first == inode_key) {
    machine_.frames().Release(it->second.frame);
    it = pages_.erase(it);
    ++dropped;
  }
  evictions_ += dropped;
  return dropped;
}

void PageCache::EvictAll() {
  for (auto& [key, entry] : pages_) {
    machine_.frames().Release(entry.frame);
    ++evictions_;
  }
  pages_.clear();
}

void PageCache::ForEachFrame(const std::function<void(FrameId)>& fn) const {
  for (const auto& [key, entry] : pages_) {
    fn(entry.frame);
  }
}

}  // namespace ufork
