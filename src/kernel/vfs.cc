#include "src/kernel/vfs.h"

#include <algorithm>
#include <cstring>

namespace ufork {

Result<std::shared_ptr<OpenFile>> RamFs::Open(const std::string& path, uint32_t flags) {
  if ((flags & (kOpenRead | kOpenWrite)) == 0) {
    return Error{Code::kErrInval, "open without read or write"};
  }
  auto it = inodes_.find(path);
  if (it == inodes_.end()) {
    if ((flags & kOpenCreate) == 0) {
      return Error{Code::kErrNoEnt, "no such file: " + path};
    }
    it = inodes_.emplace(path, std::make_shared<Inode>()).first;
  }
  if ((flags & kOpenTrunc) != 0 && (flags & kOpenWrite) != 0) {
    it->second->Truncate();
    if (on_invalidate_) {
      on_invalidate_(it->second.get());
    }
  }
  return std::static_pointer_cast<OpenFile>(
      std::make_shared<RamFileHandle>(it->second, flags, injector_, on_invalidate_));
}

Result<void> RamFs::Unlink(const std::string& path) {
  auto it = inodes_.find(path);
  if (it == inodes_.end()) {
    return Error{Code::kErrNoEnt, "unlink: no such file"};
  }
  const void* key = it->second.get();
  inodes_.erase(it);
  if (on_invalidate_) {
    on_invalidate_(key);
  }
  return OkResult();
}

Result<void> RamFs::Rename(const std::string& from, const std::string& to) {
  auto it = inodes_.find(from);
  if (it == inodes_.end()) {
    return Error{Code::kErrNoEnt, "rename: no such file"};
  }
  const auto replaced = inodes_.find(to);
  const void* replaced_key =
      (replaced != inodes_.end() && replaced->second != it->second) ? replaced->second.get()
                                                                    : nullptr;
  inodes_[to] = it->second;
  inodes_.erase(from);
  if (replaced_key != nullptr && on_invalidate_) {
    on_invalidate_(replaced_key);  // rename-over: the overwritten inode's pages are stale
  }
  return OkResult();
}

std::shared_ptr<RamFs::Inode> RamFs::InodeOf(const std::string& path) const {
  auto it = inodes_.find(path);
  return it == inodes_.end() ? nullptr : it->second;
}

Result<uint64_t> RamFs::FileSize(const std::string& path) const {
  auto it = inodes_.find(path);
  if (it == inodes_.end()) {
    return Error{Code::kErrNoEnt, "stat: no such file"};
  }
  return it->second->size;
}

void RamFs::Inode::Read(uint64_t offset, std::span<std::byte> out) const {
  UF_DCHECK(offset + out.size() <= size);
  for (uint64_t done = 0; done < out.size();) {
    const uint64_t pos = offset + done;
    const uint64_t in_block = pos % kVfsBlockSize;
    const uint64_t n = std::min<uint64_t>(out.size() - done, kVfsBlockSize - in_block);
    std::memcpy(out.data() + done, blocks[pos / kVfsBlockSize]->data() + in_block, n);
    done += n;
  }
}

void RamFs::Inode::Write(uint64_t offset, std::span<const std::byte> in) {
  const uint64_t end = offset + in.size();
  while (blocks.size() * kVfsBlockSize < end) {
    blocks.push_back(std::make_unique<Block>());  // value-initialized: a gap reads zero
  }
  size = std::max(size, end);
  for (uint64_t done = 0; done < in.size();) {
    const uint64_t pos = offset + done;
    const uint64_t in_block = pos % kVfsBlockSize;
    const uint64_t n = std::min<uint64_t>(in.size() - done, kVfsBlockSize - in_block);
    std::memcpy(blocks[pos / kVfsBlockSize]->data() + in_block, in.data() + done, n);
    done += n;
  }
}

SimTask<Result<int64_t>> RamFileHandle::Read(std::span<std::byte> out) {
  if ((flags_ & kOpenRead) == 0) {
    co_return Error{Code::kErrBadFd, "read on write-only file"};
  }
  const uint64_t size = inode_->size;
  if (offset_ >= size) {
    co_return 0;  // EOF
  }
  const uint64_t n = std::min<uint64_t>(out.size(), size - offset_);
  inode_->Read(offset_, out.first(n));
  offset_ += n;
  co_return static_cast<int64_t>(n);
}

SimTask<Result<int64_t>> RamFileHandle::Write(std::span<const std::byte> in) {
  if ((flags_ & kOpenWrite) == 0) {
    co_return Error{Code::kErrBadFd, "write on read-only file"};
  }
  if ((flags_ & kOpenAppend) != 0) {
    offset_ = inode_->size;
  }
  if (offset_ + in.size() > inode_->size && injector_ != nullptr) {
    // One probe per 4 KiB of growth, all checked before the write: a failed write leaves
    // both the file contents and its size untouched (ENOSPC, disk full).
    const uint64_t growth = offset_ + in.size() - inode_->size;
    for (uint64_t charged = 0; charged < growth; charged += kVfsBlockSize) {
      if (injector_->ShouldFail(FaultSite::kVfsGrow)) {
        co_return Error{Code::kErrNoSpc, "ramdisk block allocation failed (injected)"};
      }
    }
  }
  inode_->Write(offset_, in);
  offset_ += in.size();
  if (invalidate_) {
    invalidate_(inode_.get());  // bytes changed: stale cached pages must not serve fills
  }
  co_return static_cast<int64_t>(in.size());
}

Result<int64_t> RamFileHandle::Seek(int64_t offset, int whence) {
  int64_t base = 0;
  switch (whence) {
    case kSeekSet:
      base = 0;
      break;
    case kSeekCur:
      base = static_cast<int64_t>(offset_);
      break;
    case kSeekEnd:
      base = static_cast<int64_t>(inode_->size);
      break;
    default:
      return Error{Code::kErrInval, "bad whence"};
  }
  const int64_t target = base + offset;
  if (target < 0) {
    return Error{Code::kErrInval, "seek before start"};
  }
  offset_ = static_cast<uint64_t>(target);
  return target;
}

}  // namespace ufork
