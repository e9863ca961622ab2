// Figure 3 — Redis DB overall save times (ms).
//
// Populates a Redis database with 100 KB entries at sizes from 100 KB to 100 MB, triggers a
// background save to the ramdisk, and reports the time from the BGSAVE trigger to dump
// completion. Paper result to reproduce (shape): μFork beats CheriBSD across the range —
// 1.9× at 100 KB (1.8 vs 3.4 ms), narrowing to 1.4× at 100 MB (109 vs 158 ms), because fork
// latency dominates at small sizes while serialization bandwidth dominates at large ones.
#include "bench/redis_bench_util.h"

namespace ufork {
namespace bench {
namespace {

void RedisSave(::benchmark::State& state, System system) {
  const uint64_t db_bytes = static_cast<uint64_t>(state.range(0)) * 100 * kKiB;
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = RedisLayout();
  sc.mas_allocator_dirty_fraction = 0.55;  // jemalloc dirtying model, see EXPERIMENTS.md
  for (auto _ : state) {
    const RedisRunResult result = RunRedisBgSave(sc, db_bytes);
    SetIterationCycles(state, result.save_elapsed);
    state.counters["save_ms"] = ToMilliseconds(result.save_elapsed);
    state.counters["db_MB"] = static_cast<double>(db_bytes) / static_cast<double>(kMiB);
  }
}

// state.range(0) is the database size in units of one 100 KB entry: 1 -> 100 KB ... 1000 -> 100 MB.
BENCHMARK_CAPTURE(RedisSave, uFork, System::kUfork)
    ->RangeMultiplier(10)
    ->Range(1, 1000)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(RedisSave, CheriBSD, System::kCheriBsd)
    ->RangeMultiplier(10)
    ->Range(1, 1000)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
