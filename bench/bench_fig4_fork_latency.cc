// Figure 4 — Redis fork latency (μs).
//
// Measures the latency of the fork() call that creates the BGSAVE child, across database sizes
// and copy strategies. Paper results to reproduce (shape):
//   * μFork is consistently 5-10× faster than CheriBSD;
//   * CoPA cuts fork latency by up to 89× vs a synchronous full copy (23.2 ms -> 260 μs at a
//     100 MB database) and is up to 1.18× cheaper than CoA (260 vs 283 μs);
//   * TOCTTOU protection costs little (~2.6% on the save path at 100 MB).
#include "bench/redis_bench_util.h"

namespace ufork {
namespace bench {
namespace {

void RedisForkLatency(::benchmark::State& state, System system, ForkStrategy strategy,
                      IsolationLevel isolation) {
  const uint64_t db_bytes = static_cast<uint64_t>(state.range(0)) * 100 * kKiB;
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = RedisLayout();
  sc.kernel.strategy = strategy;
  sc.kernel.isolation = isolation;
  for (auto _ : state) {
    const RedisRunResult result = RunRedisBgSave(sc, db_bytes);
    SetIterationCycles(state, result.fork_latency);
    state.counters["fork_us"] = ToMicroseconds(result.fork_latency);
    state.counters["db_MB"] = static_cast<double>(db_bytes) / static_cast<double>(kMiB);
  }
}

#define UF_FIG4(name, ...)                              \
  BENCHMARK_CAPTURE(RedisForkLatency, name, __VA_ARGS__) \
      ->RangeMultiplier(10)                             \
      ->Range(1, 1000)                                  \
      ->Iterations(2)                                   \
      ->UseManualTime()                                 \
      ->Unit(::benchmark::kMicrosecond)

UF_FIG4(uFork_CoPA, System::kUfork, ForkStrategy::kCopa, IsolationLevel::kFull);
UF_FIG4(uFork_CoA, System::kUfork, ForkStrategy::kCoa, IsolationLevel::kFull);
UF_FIG4(uFork_FullCopy, System::kUfork, ForkStrategy::kFull, IsolationLevel::kFull);
UF_FIG4(uFork_CoPA_NoTocttou, System::kUfork, ForkStrategy::kCopa, IsolationLevel::kFault);
UF_FIG4(CheriBSD, System::kCheriBsd, ForkStrategy::kCopa, IsolationLevel::kFull);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
