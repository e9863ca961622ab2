// Figure 5 — Redis memory consumption (MB).
//
// Measures the memory consumed by the forked Redis (BGSAVE) child — its unique set size plus
// backend per-process overheads — right after it finishes serializing, while it is still
// alive. Paper results to reproduce (shape), at a 100 MB database:
//   * μFork/CoPA:      ~6 MB  (only pointer-bearing pages were copied);
//   * μFork/CoA:     ~101 MB  (every page the child *accessed* was copied);
//   * μFork/FullCopy:~144 MB  (the whole region incl. the 136.7 MB static heap);
//   * CheriBSD:       ~56 MB  (allocator dirtying, per the paper's explanation).
#include "bench/redis_bench_util.h"

namespace ufork {
namespace bench {
namespace {

void RedisChildMemory(::benchmark::State& state, System system, ForkStrategy strategy,
                      double dirty_fraction) {
  const uint64_t db_bytes = static_cast<uint64_t>(state.range(0)) * 100 * kKiB;
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = RedisLayout();
  sc.kernel.strategy = strategy;
  sc.mas_allocator_dirty_fraction = dirty_fraction;
  sc.kernel.phys_mem_bytes = 4 * kGiB;  // the full-copy strategy holds two 140 MB images
  for (auto _ : state) {
    const RedisRunResult result = RunRedisBgSave(sc, db_bytes);
    // The figure's metric is memory, not time; report both.
    SetIterationCycles(state, result.save_elapsed);
    state.counters["child_MB"] = result.child_uss_mb;
    state.counters["db_MB"] = static_cast<double>(db_bytes) / static_cast<double>(kMiB);
  }
}

#define UF_FIG5(name, ...)                               \
  BENCHMARK_CAPTURE(RedisChildMemory, name, __VA_ARGS__) \
      ->RangeMultiplier(10)                              \
      ->Range(1, 1000)                                   \
      ->Iterations(2)                                    \
      ->UseManualTime()                                  \
      ->Unit(::benchmark::kMillisecond)

UF_FIG5(uFork_CoPA, System::kUfork, ForkStrategy::kCopa, 0.0);
UF_FIG5(uFork_CoA, System::kUfork, ForkStrategy::kCoa, 0.0);
UF_FIG5(uFork_FullCopy, System::kUfork, ForkStrategy::kFull, 0.0);
UF_FIG5(CheriBSD, System::kCheriBsd, ForkStrategy::kCopa, 0.55);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
