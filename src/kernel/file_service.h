// FileService: VFS and descriptor-table syscalls and state.
//
// Owns the ramdisk VFS plus every descriptor operation (open, close, read, write, seek, dup2,
// unlink, rename, stat). Reads and writes drop the kernel lock before
// the transfer — pipe ends installed in descriptor tables may block — so the kernel never
// sleeps holding a lock.
#ifndef UFORK_SRC_KERNEL_FILE_SERVICE_H_
#define UFORK_SRC_KERNEL_FILE_SERVICE_H_

#include <string>

#include "src/base/status.h"
#include "src/cheri/capability.h"
#include "src/kernel/uproc.h"
#include "src/kernel/vfs.h"
#include "src/sched/task.h"

namespace ufork {

class Kernel;

class FileService {
 public:
  explicit FileService(Kernel& kernel) : kernel_(kernel) {}

  FileService(const FileService&) = delete;
  FileService& operator=(const FileService&) = delete;

  RamFs& vfs() { return vfs_; }

  SimTask<Result<int>> Open(Uproc& caller, std::string path, uint32_t flags);
  SimTask<Result<void>> Close(Uproc& caller, int fd);
  SimTask<Result<int64_t>> Read(Uproc& caller, int fd, Capability buf, uint64_t va,
                                uint64_t len);
  SimTask<Result<int64_t>> Write(Uproc& caller, int fd, Capability buf, uint64_t va,
                                 uint64_t len);
  SimTask<Result<int64_t>> Seek(Uproc& caller, int fd, int64_t offset, int whence);
  SimTask<Result<int>> Dup2(Uproc& caller, int oldfd, int newfd);
  SimTask<Result<void>> Unlink(Uproc& caller, std::string path);
  SimTask<Result<void>> Rename(Uproc& caller, std::string from, std::string to);
  SimTask<Result<uint64_t>> FileSize(Uproc& caller, std::string path);

  // mmap(MAP_PRIVATE) of a ramdisk file: clean pages come from the unified page cache and are
  // shared read-only by every mapper; the first write breaks the share with a private copy.
  // Under demand paging the window is reserve-only and fills fault by fault.
  SimTask<Result<Capability>> MmapFile(Uproc& caller, std::string path, uint64_t length);

 private:
  Kernel& kernel_;
  RamFs vfs_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_FILE_SERVICE_H_
