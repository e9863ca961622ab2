#include "src/kernel/syscall_table.h"

#include "src/base/check.h"

namespace ufork {
namespace {

constexpr SyscallClass kFast = SyscallClass::kFast;
constexpr SyscallClass kBlocking = SyscallClass::kBlocking;
constexpr SyscallClass kNoEntry = SyscallClass::kNoEntry;

constexpr std::array<SyscallDesc, kNumSyscalls> kTable = {{
    // --- process lifecycle (ProcService) ---
    {Sys::kFork, "fork", kFast},
    {Sys::kWait, "wait", kBlocking},
    {Sys::kExit, "exit", kBlocking},
    {Sys::kGetPid, "getpid", kFast},
    {Sys::kGetPPid, "getppid", kFast},
    {Sys::kKill, "kill", kFast},
    {Sys::kSigaction, "sigaction", kFast},
    {Sys::kCheckSignals, "check_signals", kNoEntry},
    {Sys::kExec, "exec", kBlocking},
    {Sys::kSpawn, "spawn", kFast},
    {Sys::kNanosleep, "nanosleep", kBlocking},
    {Sys::kThreadCreate, "thread_create", kFast},
    {Sys::kThreadJoin, "thread_join", kBlocking},
    {Sys::kMmapAnon, "mmap_anon", kFast},
    // --- VFS / descriptors (FileService) ---
    {Sys::kOpen, "open", kFast},
    {Sys::kClose, "close", kFast},
    {Sys::kRead, "read", kBlocking},
    {Sys::kWrite, "write", kBlocking},
    {Sys::kSeek, "seek", kFast},
    {Sys::kDup2, "dup2", kFast},
    {Sys::kUnlink, "unlink", kFast},
    {Sys::kRename, "rename", kFast},
    {Sys::kFileSize, "file_size", kFast},
    // --- IPC (IpcService) ---
    {Sys::kPipe, "pipe", kFast},
    {Sys::kMqOpen, "mq_open", kFast},
    {Sys::kShmOpen, "shm_open", kFast},
    {Sys::kShmMap, "shm_map", kFast},
    {Sys::kShmUnlink, "shm_unlink", kFast},
    {Sys::kFutexWait, "futex_wait", kBlocking},
    {Sys::kFutexWake, "futex_wake", kFast},
    // --- demand-paged memory (appended so the established row indices stay stable) ---
    {Sys::kSbrk, "sbrk", kFast},
    {Sys::kMmapFile, "mmap_file", kFast},
}};

// The table must be indexed by Sys: row i describes syscall i.
constexpr bool TableOrdered() {
  for (size_t i = 0; i < kTable.size(); ++i) {
    if (static_cast<size_t>(kTable[i].id) != i) {
      return false;
    }
  }
  return true;
}
static_assert(TableOrdered(), "syscall table rows must be in Sys enum order");

}  // namespace

const char* SyscallClassName(SyscallClass klass) {
  switch (klass) {
    case SyscallClass::kFast:
      return "fast";
    case SyscallClass::kBlocking:
      return "blocking";
    case SyscallClass::kNoEntry:
      return "delivery";
  }
  return "?";
}

const std::array<SyscallDesc, kNumSyscalls>& SyscallTable() { return kTable; }

const SyscallDesc& SyscallDescOf(Sys id) {
  UF_CHECK(id < Sys::kCount);
  return kTable[static_cast<size_t>(id)];
}

}  // namespace ufork
