// Ramdisk virtual filesystem.
//
// The paper's Redis experiment saves snapshots "to a ram-disk, minimizing I/O latency" (§5.1);
// this VFS is that ramdisk: a flat namespace of in-(host-)memory files with POSIX-ish open
// flags, byte-offset read/write/seek, rename (Redis saves to a temp file then renames) and
// unlink. Transfer costs are charged through the cost model by the syscall layer.
#ifndef UFORK_SRC_KERNEL_VFS_H_
#define UFORK_SRC_KERNEL_VFS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/kernel/fd.h"

namespace ufork {

enum OpenFlags : uint32_t {
  kOpenRead = 1u << 0,
  kOpenWrite = 1u << 1,
  kOpenCreate = 1u << 2,
  kOpenTrunc = 1u << 3,
  kOpenAppend = 1u << 4,
};

enum SeekWhence : int { kSeekSet = 0, kSeekCur = 1, kSeekEnd = 2 };

// Ramdisk block size: granularity at which file growth is charged against the kVfsGrow
// injection site (one probe per started block).
inline constexpr uint64_t kVfsBlockSize = 4096;

class RamFs {
 public:
  // Invoked with the Inode pointer whenever an inode's bytes change or the inode leaves the
  // namespace (write, truncate-on-open, unlink, rename-overwrite): the unified page cache
  // keys on inode identity and must drop stale pages.
  using InvalidateFn = std::function<void(const void* inode_key)>;

  // A file's bytes, kept in kVfsBlockSize blocks: block i holds bytes [i, i+1) * kVfsBlockSize.
  // Growth appends zeroed blocks and never moves the bytes already written, so a large file
  // costs its blocks and a pointer per block, not a reallocated copy of itself.
  struct Inode {
    using Block = std::array<std::byte, kVfsBlockSize>;

    // Copies out.size() bytes starting at `offset`; the range must lie within `size`.
    void Read(uint64_t offset, std::span<std::byte> out) const;
    // Writes `in` at `offset`, growing the file to offset + in.size() if it ends before.
    void Write(uint64_t offset, std::span<const std::byte> in);
    void Truncate() {
      blocks.clear();
      size = 0;
    }

    std::vector<std::unique_ptr<Block>> blocks;  // ceil(size / kVfsBlockSize) of them
    uint64_t size = 0;
    uint64_t link_count = 1;
  };

  Result<std::shared_ptr<OpenFile>> Open(const std::string& path, uint32_t flags);
  Result<void> Unlink(const std::string& path);
  Result<void> Rename(const std::string& from, const std::string& to);
  Result<uint64_t> FileSize(const std::string& path) const;
  // The inode backing `path`, or null if absent. MmapFile names page-cache pages by inode
  // identity, which (like a POSIX mmap) survives a later rename of the path.
  std::shared_ptr<Inode> InodeOf(const std::string& path) const;

  // Deterministic fault injection: kVfsGrow fires in RamFileHandle::Write whenever the ramdisk
  // would grow a file (disk full, ENOSPC). Null: disabled.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Null: no cache to keep coherent. Fired outside inode->mu (the cache fill path takes its
  // own lock before the inode's).
  void set_invalidate_hook(InvalidateFn fn) { on_invalidate_ = std::move(fn); }

 private:
  FaultInjector* injector_ = nullptr;
  InvalidateFn on_invalidate_;
  std::map<std::string, std::shared_ptr<Inode>> inodes_;
};

// Open-file description for a ramdisk file: shared offset across dup/fork, as POSIX requires.
class RamFileHandle : public OpenFile {
 public:
  RamFileHandle(std::shared_ptr<RamFs::Inode> inode, uint32_t flags,
                FaultInjector* injector = nullptr, RamFs::InvalidateFn invalidate = nullptr)
      : inode_(std::move(inode)),
        flags_(flags),
        injector_(injector),
        invalidate_(std::move(invalidate)) {}

  SimTask<Result<int64_t>> Read(std::span<std::byte> out) override;
  SimTask<Result<int64_t>> Write(std::span<const std::byte> in) override;
  Result<int64_t> Seek(int64_t offset, int whence) override;
  const char* kind() const override { return "file"; }

 private:
  std::shared_ptr<RamFs::Inode> inode_;
  uint32_t flags_;
  FaultInjector* injector_ = nullptr;
  RamFs::InvalidateFn invalidate_;
  uint64_t offset_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_VFS_H_
