// The declarative syscall table: one row per system call.
//
// Every syscall the kernel exports is described here once — its name and its cost/blocking
// class. SyscallScope (syscall_scope.h) consumes a row to run the shared entry/exit protocol
// (stats, entry cost, sealed-entry check, argument validation charge, kernel lock), and
// KernelStats keeps one counter per row, so adding a syscall means adding a row — not
// re-deriving the prologue by hand.
#ifndef UFORK_SRC_KERNEL_SYSCALL_TABLE_H_
#define UFORK_SRC_KERNEL_SYSCALL_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace ufork {

// Syscall identifiers. Order is the table order; kCount is the table size.
enum class Sys : uint16_t {
  kFork,
  kWait,
  kExit,
  kGetPid,
  kGetPPid,
  kKill,
  kSigaction,
  kCheckSignals,
  kExec,
  kSpawn,
  kNanosleep,
  kThreadCreate,
  kThreadJoin,
  kMmapAnon,
  kOpen,
  kClose,
  kRead,
  kWrite,
  kSeek,
  kDup2,
  kUnlink,
  kRename,
  kFileSize,
  kPipe,
  kMqOpen,
  kShmOpen,
  kShmMap,
  kShmUnlink,
  kFutexWait,
  kFutexWake,
  kSbrk,
  kMmapFile,
  kCount,
};

inline constexpr size_t kNumSyscalls = static_cast<size_t>(Sys::kCount);

// How the call interacts with the kernel lock.
enum class SyscallClass : uint8_t {
  kFast,      // never suspends while in the kernel: the scope holds the lock entry-to-return
  kBlocking,  // may suspend mid-call: drops the lock explicitly first (SyscallScope::Leave)
  kNoEntry,   // a delivery point, not a kernel entry: no sealed-entry invocation, no lock,
              // never counted in KernelStats::syscalls
};

const char* SyscallClassName(SyscallClass klass);

struct SyscallDesc {
  Sys id;
  const char* name;
  SyscallClass klass;
};

// The full table, indexed by Sys.
const std::array<SyscallDesc, kNumSyscalls>& SyscallTable();

const SyscallDesc& SyscallDescOf(Sys id);

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_SYSCALL_TABLE_H_
