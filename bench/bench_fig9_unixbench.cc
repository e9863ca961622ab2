// Figure 9 — Unixbench Spawn and Context1 execution times.
//
// Spawn: 1000 consecutive fork+exit+wait cycles. Context1: two processes bounce an
// incrementing counter through a pair of pipes until it reaches 100k. Paper results to
// reproduce: Spawn 56 ms (μFork) vs 198 ms (CheriBSD); Context1 245 ms vs 419 ms — the gaps
// come from fork latency and from exception-less single-privilege-level syscalls respectively.
#include "bench/bench_common.h"
#include "src/apps/unixbench.h"

namespace ufork {
namespace bench {
namespace {

void UnixbenchSpawnBench(::benchmark::State& state, System system) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    SpawnResult result;
    RunGuestMain(sc, [&result](Guest& g) -> SimTask<void> {
      co_await UnixbenchSpawn(g, 1000, &result);
    });
    SetIterationCycles(state, result.elapsed);
    state.counters["total_ms"] = ToMilliseconds(result.elapsed);
    state.counters["per_fork_us"] = result.ForkLatencyUs();
  }
}

void UnixbenchContext1Bench(::benchmark::State& state, System system) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    Context1Result result;
    RunGuestMain(sc, [&result](Guest& g) -> SimTask<void> {
      co_await UnixbenchContext1(g, 100'000, &result);
    });
    SetIterationCycles(state, result.elapsed);
    state.counters["total_ms"] = ToMilliseconds(result.elapsed);
  }
}

BENCHMARK_CAPTURE(UnixbenchSpawnBench, uFork, System::kUfork)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(UnixbenchSpawnBench, CheriBSD, System::kCheriBsd)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(UnixbenchContext1Bench, uFork, System::kUfork)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(UnixbenchContext1Bench, CheriBSD, System::kCheriBsd)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
