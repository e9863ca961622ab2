// File descriptors and per-μprocess descriptor tables.
//
// POSIX semantics the fork paths depend on: descriptors index into a per-process table whose
// entries reference shared "open file descriptions" (offset and state shared after fork/dup).
// fork duplicates the *table*; the descriptions are reference-counted and shared — this is what
// makes, e.g., a Redis child inherit the snapshot file and pipe ends.
#ifndef UFORK_SRC_KERNEL_FD_H_
#define UFORK_SRC_KERNEL_FD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/machine/cost_model.h"
#include "src/sched/task.h"

namespace ufork {

// Abstract open file description. Read/Write operate on kernel-side buffers: the syscall layer
// performs the user-memory transfer (through the caller's capability, honouring CoW/CoPA) and
// the TOCTTOU bounce-buffering around these calls.
class OpenFile {
 public:
  virtual ~OpenFile() = default;

  // Blocking semantics where applicable (pipes, message queues). Returns bytes transferred;
  // 0 on EOF for reads.
  virtual SimTask<Result<int64_t>> Read(std::span<std::byte> out) = 0;
  virtual SimTask<Result<int64_t>> Write(std::span<const std::byte> in) = 0;

  // Reposition (regular files only).
  virtual Result<int64_t> Seek(int64_t offset, int whence) {
    (void)offset;
    (void)whence;
    return Code::kErrInval;
  }

  // Reference-count notifications, driven by descriptor-table operations: a description starts
  // with one reference when installed; fork/dup add references (OnDup); each descriptor close
  // removes one (OnClose). Pipes use these to deliver EOF / EPIPE when a side vanishes.
  virtual void OnDup() {}
  virtual void OnClose() {}

  // Fixed kernel cost per Read/Write on this description (byte costs are charged separately).
  virtual Cycles IoFixedCost(const CostModel& costs) const { return costs.vfs_op; }

  virtual const char* kind() const = 0;
};

inline constexpr int kMaxFds = 256;

class FdTable {
 public:
  // Installs the description at the lowest free slot (EMFILE once all kMaxFds are open).
  Result<int> Install(std::shared_ptr<OpenFile> file);

  Result<std::shared_ptr<OpenFile>> Get(int fd) const;

  Result<void> Close(int fd);

  // dup2 semantics: points newfd at oldfd's description (closing newfd's previous one).
  Result<int> Dup2(int oldfd, int newfd);

  // fork-time duplication: same descriptions, new table. Notifies each description via OnDup.
  std::shared_ptr<FdTable> Clone() const;

  // Closes everything (process exit).
  void CloseAll();

  int OpenCount() const;

 private:
  // Indexed by descriptor and no longer than the highest open one + 1 (at most kMaxFds), so
  // fork's Clone and exit's CloseAll touch only the slots a μprocess has used.
  std::vector<std::shared_ptr<OpenFile>> slots_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_FD_H_
