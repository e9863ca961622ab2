// VFS-unified page cache (DESIGN.md §4.12).
//
// One refcounted frame per (inode, file-page) pair, filled read-through from the ramdisk
// inode's bytes on first demand. MmapFile maps these frames directly — clean file pages
// are shared by every mapper and by the cache itself, so a 256-worker fleet mmapping the
// same config pays one frame, not 256. Writes go private through the ordinary CoW break
// (the mapping carries kPteCow because the cache's reference keeps the refcount above one).
//
// The ramdisk inode remains the source of truth for file *contents*: a VFS write to a
// cached file evicts the stale cached pages (future fills re-read), while existing
// MAP_PRIVATE mappings legitimately keep whatever they saw — POSIX leaves post-mmap file
// updates to private mappings unspecified.
#ifndef UFORK_SRC_KERNEL_PAGE_CACHE_H_
#define UFORK_SRC_KERNEL_PAGE_CACHE_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/kernel/vfs.h"
#include "src/machine/machine.h"

namespace ufork {

class PageCache {
 public:
  explicit PageCache(Machine& machine) : machine_(machine) {}
  ~PageCache() { EvictAll(); }

  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  // Deterministic fault injection (FaultSite::kPageCacheFill fires before the fill's frame
  // allocation). Null: disabled.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Read-through lookup: the frame caching file page `page_index` of `inode`, filled from
  // the inode's bytes on miss (zero-padded past EOF). The returned frame carries one extra
  // reference for the caller — map it or Release it; the cache always keeps its own.
  Result<FrameId> GetFrame(const std::shared_ptr<RamFs::Inode>& inode, uint64_t page_index);

  // Drops every cached page of the inode identified by `inode_key` (RamFs::Inode pointer):
  // unlink, truncation, or a write that changed the bytes. Returns the page count dropped.
  uint64_t EvictInode(const void* inode_key);
  void EvictAll();

  // Enumerates the cache's held frame references (the frame-accounting invariant counts
  // these as kernel-held refs alongside shm objects).
  void ForEachFrame(const std::function<void(FrameId)>& fn) const;

  uint64_t hits() const { return hits_; }
  uint64_t fills() const { return fills_; }
  uint64_t evictions() const { return evictions_; }
  uint64_t resident_pages() const { return pages_.size(); }

 private:
  struct Entry {
    FrameId frame = kInvalidFrame;
    std::shared_ptr<RamFs::Inode> inode;  // pins the inode while its pages are cached
  };

  Machine& machine_;
  FaultInjector* injector_ = nullptr;
  std::map<std::pair<const void*, uint64_t>, Entry> pages_;
  uint64_t hits_ = 0;
  uint64_t fills_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_PAGE_CACHE_H_
