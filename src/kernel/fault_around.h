// Adaptive fault-around for CoW/CoPA resolution (DESIGN.md §4.8).
//
// A post-fork fault storm pays `page_fault` + `pte_update` per page when pages are resolved
// one trap at a time. Spatially-clustered storms (a bulk write marching through a CoW heap, a
// capability walk over a CoPA bucket array) can amortize those fixed costs: the resolver
// handles a *window* of adjacent pages that share the same pending state in one trap, paying
// the trap once and one batched PTE update (`pte_update_batched`, a coalesced TLB shootdown)
// per window. Copy + relocate remain per-page — fault-around batches the *transition* costs,
// not the data movement.
//
// The window is adaptive per μprocess, Linux-fault-around style: pages beyond the access span
// are speculative, so their PTEs carry kPteFaultAround, which the access engine clears on
// first touch. Still-set markers found at the next fault mean wasted copies (a speculative
// page copy costs ~3× what the avoided trap would have) and halve the window; a fault landing
// exactly where the previous window ended doubles it. Pages the faulting access itself spans
// (PageFaultInfo::access_end) are never speculative and always eligible.
//
// These helpers are shared by the μFork and MAS backends; each backend keeps its own copy
// machinery and cycle charging so window=1 stays bit-identical to single-page resolution.
#ifndef UFORK_SRC_KERNEL_FAULT_AROUND_H_
#define UFORK_SRC_KERNEL_FAULT_AROUND_H_

#include <cstdint>

#include "src/kernel/kernel_core.h"
#include "src/kernel/uproc.h"
#include "src/machine/machine.h"
#include "src/mem/page_table.h"

namespace ufork {

// A planned resolution window: `pages` adjacent pages starting at the faulting page, all in
// the same pending state (identical PTE flags, same sharing class) and inside one segment.
struct FaultWindow {
  uint64_t va = 0;         // faulting page (window start)
  uint64_t pages = 1;      // pages to resolve in this trap (>= 1)
  bool shared = false;     // refcount > 1: copy-out; else last-sharer reclaim-in-place
  uint32_t seg_flags = 0;  // segment permissions the resolved pages end up with
};

// Step 1 — runs the adaptive controller: sweeps the previous window's speculative markers
// (counting stale ones as waste), grows/shrinks the μprocess window, and returns the page
// limit for this fault. Returns 1 when fault-around is disabled (max_window <= 1).
uint32_t FaultAroundBegin(KernelCore& kernel, Uproc& uproc, const PageFaultInfo& info);

// Step 2 — scans forward from the faulting page for up to `limit` adjacent pages in the same
// pending state, clipping at the segment boundary. `fault_pte` is the faulting page's PTE.
FaultWindow FaultAroundScan(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                            const PageFaultInfo& info, const Pte& fault_pte, uint32_t limit);

// Step 3 — after the backend resolved the window: records trap/page counters and arms the
// adjacency detector + speculative span for the next fault.
void FaultAroundCommit(KernelCore& kernel, Uproc& uproc, const FaultWindow& window);

// Exit sweep: speculative pages from the μprocess's final window that were never touched are
// waste too; count them before the region is released (called from both exit paths).
void FaultAroundAccountExitWaste(KernelCore& kernel, Uproc& uproc);

// Demand-fill resolution (DESIGN.md §4.12), shared by all three backends: populates a window
// of adjacent reservations (kPteNotPresent) in one trap — zeroed frames for kPteZeroFill
// pages, page-cache frames for kPteFileBacked pages (write faults break the share with a
// private copy immediately). All-or-nothing at the faulting page: a failed fill returns
// ENOMEM with every PTE still reserved; a failed speculative tail degrades the window.
Result<void> ResolveDemandFault(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                                const PageFaultInfo& info, const Pte& fault_pte);

// Classic CoW write-break over a window (frames shared at fork time or through the page
// cache): copy-out when shared, reclaim-in-place when last sharer. Shared by the MAS and
// VM-clone backends; μFork keeps its own copy loop because it interleaves capability
// relocation with the data movement.
Result<void> ResolveCowWriteWindow(KernelCore& kernel, Uproc& uproc, PageTable& pt,
                                   const PageFaultInfo& info, const Pte& fault_pte);

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_FAULT_AROUND_H_
