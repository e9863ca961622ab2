// Shared benchmark scaffolding: the three systems under comparison (μFork/Unikraft,
// CheriBSD-like MAS, Nephele-like VM clone), their calibrated cost models, layout presets for
// each experiment, and glue for reporting simulator virtual time through google-benchmark's
// manual-time mode.
//
// Calibration philosophy (see EXPERIMENTS.md): constants are anchored to the absolute numbers
// the paper publishes for its microbenchmarks; the macro results must then reproduce the
// paper's *shapes* (who wins, by what factor, where crossovers fall) without per-figure tuning.
#ifndef UFORK_BENCH_BENCH_COMMON_H_
#define UFORK_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>

#include "src/baseline/system.h"
#include "src/guest/guest.h"

namespace ufork {
namespace bench {

enum class System { kUfork, kCheriBsd, kNephele };

inline const char* SystemName(System system) {
  switch (system) {
    case System::kUfork:
      return "uFork";
    case System::kCheriBsd:
      return "CheriBSD";
    case System::kNephele:
      return "Nephele";
  }
  return "?";
}

// CheriBSD-specific cost-model deltas: buffered-I/O double copy in the monolithic write path
// and the pure-capability memcpy penalty on the prototype Morello microarchitecture ([64],
// [117]) make its streaming paths slower than the lean unikernel path.
inline CostModel CheriBsdCosts() {
  CostModel costs;
  costs.bulk_bytes_per_cycle = 1.9;
  costs.vfs_bytes_per_cycle = 2.1;
  // sleepqueue wakeup + idle-thread switch + exception-level crossings on the resume path.
  costs.blocking_wake = 4'800;
  // Pure-capability exception entry/exit on the Morello prototype is notably costlier than a
  // classical trap (documented purecap overheads, [64]/[117]).
  costs.syscall_trap = 1'650;
  return costs;
}

// --- layout presets -----------------------------------------------------------------------------

// Minimal hello-world image (Fig. 8): a small unikernel-style program.
inline LayoutConfig HelloLayout() {
  LayoutConfig layout;
  layout.text_size = 128 * kKiB;
  layout.rodata_size = 16 * kKiB;
  layout.got_size = 16 * kKiB;
  layout.data_size = 16 * kKiB;
  layout.heap_size = 1 * kMiB;
  layout.stack_size = 128 * kKiB;
  layout.tls_size = 4 * kKiB;
  layout.mmap_size = 64 * kKiB;
  return layout;
}

// Redis image: the paper's build uses a ~136.7 MB static heap (§5.2 "CoPA vs. CoA vs. Full
// Copy"); the heap size is fixed regardless of database size.
inline LayoutConfig RedisLayout() {
  LayoutConfig layout;
  layout.heap_size = static_cast<uint64_t>(136.7 * static_cast<double>(kMiB));
  layout.stack_size = 256 * kKiB;
  return layout;
}

// MicroPython Zygote image: interpreter + warm runtime.
inline LayoutConfig FaasLayout() {
  LayoutConfig layout;
  layout.heap_size = 8 * kMiB;
  return layout;
}

inline LayoutConfig HttpdLayout() {
  LayoutConfig layout;
  layout.heap_size = 4 * kMiB;
  return layout;
}

// --- kernel construction ------------------------------------------------------------------------

struct SystemConfig {
  // The calibrated figures run on 3 GiB of simulated memory, not KernelConfig's 2 GiB.
  SystemConfig() { kernel.phys_mem_bytes = 3 * kGiB; }

  System system = System::kUfork;
  KernelConfig kernel;
  double mas_allocator_dirty_fraction = 0.0;
};

inline std::unique_ptr<Kernel> MakeSystem(const SystemConfig& sc) {
  KernelConfig config = sc.kernel;
  switch (sc.system) {
    case System::kUfork:
      return MakeUforkKernel(config);
    case System::kCheriBsd: {
      config.costs = CheriBsdCosts();
      // A monolithic kernel always bounce-buffers user memory (copyin/copyout).
      config.isolation = IsolationLevel::kFull;
      MasParams params;
      params.allocator_dirty_fraction = sc.mas_allocator_dirty_fraction;
      return MakeMasKernel(config, params);
    }
    case System::kNephele:
      return MakeVmCloneKernel(config);
  }
  UF_UNREACHABLE();
}

// Runs a guest program to completion on a fresh kernel and returns the kernel for inspection.
inline std::unique_ptr<Kernel> RunGuestMain(const SystemConfig& sc, GuestFn main_fn,
                                            int pinned_core = -1) {
  auto kernel = MakeSystem(sc);
  auto pid = kernel->Spawn(MakeGuestEntry(std::move(main_fn)), "bench-main", pinned_core);
  UF_CHECK_MSG(pid.ok(), "benchmark spawn failed");
  kernel->Run();
  return kernel;
}

// Reports simulator cycles as this iteration's manual time.
inline void SetIterationCycles(::benchmark::State& state, Cycles cycles) {
  state.SetIterationTime(ToSeconds(cycles));
}

}  // namespace bench
}  // namespace ufork

#endif  // UFORK_BENCH_BENCH_COMMON_H_
