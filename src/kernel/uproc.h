// μprocess: the emulated POSIX process (paper §3.4, building block 1).
//
// Each μprocess owns a contiguous region of the single address space, a register file whose
// capability registers are confined to that region, a descriptor table, and one thread (fork
// copies a single thread, matching POSIX). In the MAS baseline a process owns its page table
// instead of a region of the shared one.
#ifndef UFORK_SRC_KERNEL_UPROC_H_
#define UFORK_SRC_KERNEL_UPROC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/kernel/fd.h"
#include "src/kernel/signal.h"
#include "src/kernel/vfs.h"
#include "src/machine/register_file.h"
#include "src/mem/frame_allocator.h"
#include "src/mem/page_table.h"
#include "src/sched/scheduler.h"

namespace ufork {

using Pid = int64_t;
inline constexpr Pid kInvalidPid = -1;

// Per-μprocess adaptive fault-around controller state (Linux fault-around style, but for
// CoW/CoPA resolution windows — see DESIGN.md §4.8). The window doubles when the previous
// window was fully consumed and the next fault lands right where it left off, and halves when
// speculatively-resolved pages were still untouched at the next fault.
struct FaultAroundState {
  uint32_t window = 1;   // current adaptive window (pages), clamped to config.max_window
  uint64_t next_va = 0;  // one past the last resolved window (adjacency detector)
  uint64_t spec_lo = 0;  // last window's speculative span [spec_lo, spec_hi): pages that still
  uint64_t spec_hi = 0;  // carry kPteFaultAround at the next fault were wasted copies
};

// Per-fork accounting, reported by the benchmarks (Figs. 4, 8).
struct ForkStats {
  Cycles latency = 0;                  // time for the fork call to complete
  uint64_t pages_mapped = 0;           // child PTEs created
  uint64_t pages_copied_eagerly = 0;   // proactive copies (GOT, allocator metadata, full copy)
  uint64_t caps_relocated_eagerly = 0;
  uint64_t registers_relocated = 0;
  uint64_t bytes_copied_eagerly = 0;
  uint64_t pages_reserved = 0;  // not-present reservations inherited lazily (demand paging)
};

class Uproc {
 public:
  enum class State { kRunning, kZombie, kDead };

  Uproc(Pid pid, Scheduler& sched) : child_wait(sched), pid_(pid) {}

  Uproc(const Uproc&) = delete;
  Uproc& operator=(const Uproc&) = delete;

  Pid pid() const { return pid_; }

  bool ContainsVa(uint64_t va) const { return va >= base && va < base + size; }
  uint64_t OffsetOf(uint64_t va) const {
    UF_DCHECK(ContainsVa(va));
    return va - base;
  }

  // --- identity & lifecycle ---
  Pid parent_pid = kInvalidPid;
  State state = State::kRunning;
  int exit_code = 0;
  std::string name;
  bool forked_child = false;  // false for freshly spawned programs (run crt initialization)

  // --- memory ---
  uint64_t base = 0;  // region base in the (shared or private) address space
  uint64_t size = 0;
  PageTable* page_table = nullptr;        // SAS: the kernel's shared table
  std::unique_ptr<PageTable> owned_pt;    // MAS/VM backends: private table
  uint64_t mmap_cursor = 0;               // bump pointer within the mmap segment

  // --- demand paging (DESIGN.md §4.12) ---
  // Absolute VA of the heap break: sbrk moves it within (heap_off, heap_off + heap_size];
  // pages at/above the break are unmapped, pages below are populated or reserved.
  uint64_t heap_break = 0;
  // File-backed mmap windows (MmapFile): the PTE only says kPteFileBacked; this table
  // names the inode and starting file page, so the demand-fill path knows what to read
  // through the page cache. Rebased on fork (child region) and compaction moves.
  struct FileMapping {
    uint64_t va = 0;          // absolute, page aligned
    uint64_t pages = 0;       // extent in pages
    uint64_t start_page = 0;  // file page index mapped at `va`
    std::shared_ptr<RamFs::Inode> inode;
  };
  std::vector<FileMapping> file_mappings;
  const FileMapping* FileMappingAt(uint64_t va) const {
    for (const auto& m : file_mappings) {
      if (va >= m.va && va < m.va + m.pages * kPageSize) {
        return &m;
      }
    }
    return nullptr;
  }

  // --- architectural state ---
  RegisterFile regs;
  Capability syscall_sentry;  // sealed entry capability for trapless syscalls (§4.4)

  // --- kernel resources ---
  std::shared_ptr<FdTable> fds;
  // The μprocess's main thread (the one fork duplicates) plus any it spawned (§3.4: "each
  // μprocess may have many threads"; fork copies a single thread, matching POSIX).
  ThreadId thread = kInvalidThread;
  std::vector<ThreadId> threads;
  std::unique_ptr<WaitQueue> thread_exit_wait;  // joiners block here
  // Scheduler affinity inherited by fork children (the sched_setaffinity-before-fork pattern
  // the FaaS coordinator uses to keep function executors off its own core). -1 = any core.
  int child_affinity = -1;
  std::vector<Pid> children;
  WaitQueue child_wait;  // parent blocks here in wait()
  SignalState signals;

  // --- accounting ---
  ForkStats fork_stats;  // stats of the fork that created this μprocess
  uint64_t forks_performed = 0;
  // Fault ledger (DESIGN.md §4.14): unresolvable capability/translation faults crash
  // containment routed to SIGSEGV for *this* μprocess — the per-victim view the attack
  // battery's StateDigest and the summary report fold, next to the kernel-wide
  // stats().faults_contained total.
  uint64_t faults_contained = 0;
  Code last_fault = Code::kOk;
  FaultAroundState fault_around;  // adaptive CoW/CoPA resolution window (DESIGN.md §4.8)
  // Frame-billing tenant (DESIGN.md §4.10): inherited by fork/spawn children, stamped into
  // the FrameAllocator at every kernel entry so grants charge to this μprocess's tree.
  TenantId tenant = kSystemTenant;

 private:
  Pid pid_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_UPROC_H_
