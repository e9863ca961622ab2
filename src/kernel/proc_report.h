// Kernel introspection reports — the ps/pmap of the simulated OS.
//
// Pure string builders over kernel state: a process table, a per-μprocess memory map showing
// which pages are private, CoW-shared, CoPA-armed or MAP_SHARED, and a one-shot kernel summary.
// Used by examples and handy when debugging tests; never consulted by the simulation itself.
#ifndef UFORK_SRC_KERNEL_PROC_REPORT_H_
#define UFORK_SRC_KERNEL_PROC_REPORT_H_

#include <string>

#include "src/kernel/kernel.h"

namespace ufork {

// One line per live/zombie μprocess: pid, ppid, state, region, residency, fork stats.
std::string ProcessTableReport(Kernel& kernel);

// Segment-by-segment map of one μprocess: offsets, permissions, page-state counts.
std::string MemoryMapReport(Kernel& kernel, Pid pid);

// Kernel-wide counters: forks, syscalls, fault-driven copies, relocations, tag discipline.
std::string KernelSummaryReport(Kernel& kernel);

// One line per syscall in the dispatch table: name, cost class, invocation count.
// Driven entirely by the declarative table, so a syscall added there shows up here for free.
std::string SyscallTableReport(Kernel& kernel);

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_PROC_REPORT_H_
