#include "src/kernel/syscall_table.h"


namespace ufork {
namespace {

constexpr SyscallClass kFast = SyscallClass::kFast;
constexpr SyscallClass kBlocking = SyscallClass::kBlocking;
constexpr SyscallClass kNoEntry = SyscallClass::kNoEntry;

constexpr std::array<SyscallDesc, kNumSyscalls> kTable = {{
    // --- process lifecycle (ProcService) ---
    {Sys::kFork, "fork", kFast, LockDomain::kProc},
    {Sys::kWait, "wait", kBlocking, LockDomain::kProc},
    {Sys::kExit, "exit", kBlocking, LockDomain::kProc},
    {Sys::kGetPid, "getpid", kFast, LockDomain::kProc},
    {Sys::kGetPPid, "getppid", kFast, LockDomain::kProc},
    {Sys::kKill, "kill", kFast, LockDomain::kProc},
    {Sys::kSigaction, "sigaction", kFast, LockDomain::kProc},
    {Sys::kCheckSignals, "check_signals", kNoEntry, LockDomain::kProc},
    {Sys::kExec, "exec", kBlocking, LockDomain::kProc},
    {Sys::kSpawn, "spawn", kFast, LockDomain::kProc},
    {Sys::kNanosleep, "nanosleep", kBlocking, LockDomain::kProc},
    {Sys::kThreadCreate, "thread_create", kFast, LockDomain::kProc},
    {Sys::kThreadJoin, "thread_join", kBlocking, LockDomain::kProc},
    {Sys::kMmapAnon, "mmap_anon", kFast, LockDomain::kProc},
    // --- VFS / descriptors (FileService) ---
    {Sys::kOpen, "open", kFast, LockDomain::kFile},
    {Sys::kClose, "close", kFast, LockDomain::kFile},
    {Sys::kRead, "read", kBlocking, LockDomain::kFile},
    {Sys::kWrite, "write", kBlocking, LockDomain::kFile},
    {Sys::kSeek, "seek", kFast, LockDomain::kFile},
    {Sys::kDup2, "dup2", kFast, LockDomain::kFile},
    {Sys::kUnlink, "unlink", kFast, LockDomain::kFile},
    {Sys::kRename, "rename", kFast, LockDomain::kFile},
    {Sys::kFileSize, "file_size", kFast, LockDomain::kFile},
    // --- IPC (IpcService) ---
    {Sys::kPipe, "pipe", kFast, LockDomain::kIpc},
    {Sys::kMqOpen, "mq_open", kFast, LockDomain::kIpc},
    {Sys::kShmOpen, "shm_open", kFast, LockDomain::kIpc},
    {Sys::kShmMap, "shm_map", kFast, LockDomain::kIpc},
    {Sys::kShmUnlink, "shm_unlink", kFast, LockDomain::kIpc},
    {Sys::kFutexWait, "futex_wait", kBlocking, LockDomain::kIpc},
    {Sys::kFutexWake, "futex_wake", kFast, LockDomain::kIpc},
    // --- demand-paged memory (appended so the established row indices stay stable) ---
    {Sys::kSbrk, "sbrk", kFast, LockDomain::kProc},
    {Sys::kMmapFile, "mmap_file", kFast, LockDomain::kFile},
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
