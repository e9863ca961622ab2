// Ablation — design choices beyond the paper's headline figures:
//   * all four copy strategies side by side (including the intentionally unsound UnsafeCoW) on
//     one workload, reporting latency, child residency and pages copied;
//   * the cost of each isolation level (§3.6's parameterized isolation) on a syscall-heavy
//     pipe workload.
#include "bench/bench_common.h"
#include "bench/redis_bench_util.h"
#include "src/apps/unixbench.h"

namespace ufork {
namespace bench {
namespace {

void StrategyAblation(::benchmark::State& state, ForkStrategy strategy) {
  SystemConfig sc;
  sc.kernel.layout = RedisLayout();
  sc.kernel.strategy = strategy;
  sc.kernel.phys_mem_bytes = 4 * kGiB;
  const uint64_t db_bytes = 10 * kMiB;
  for (auto _ : state) {
    const RedisRunResult result = RunRedisBgSave(sc, db_bytes);
    SetIterationCycles(state, result.fork_latency);
    state.counters["fork_us"] = ToMicroseconds(result.fork_latency);
    state.counters["save_ms"] = ToMilliseconds(result.save_elapsed);
    state.counters["child_MB"] = result.child_uss_mb;
  }
}

BENCHMARK_CAPTURE(StrategyAblation, CoPA, ForkStrategy::kCopa)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(StrategyAblation, CoA, ForkStrategy::kCoa)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(StrategyAblation, FullCopy, ForkStrategy::kFull)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(StrategyAblation, UnsafeCoW, ForkStrategy::kUnsafeCow)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);

// Isolation-level cost on a syscall-heavy path (pipe ping-pong): kNone disables capability
// confinement and kernel checks, kFault adds them, kFull adds TOCTTOU bounce buffering.
void IsolationAblation(::benchmark::State& state, IsolationLevel isolation) {
  SystemConfig sc;
  sc.kernel.layout = HelloLayout();
  sc.kernel.isolation = isolation;
  for (auto _ : state) {
    Context1Result result;
    RunGuestMain(sc, [&result](Guest& g) -> SimTask<void> {
      co_await UnixbenchContext1(g, 20'000, &result);
    });
    SetIterationCycles(state, result.elapsed);
    state.counters["total_ms"] = ToMilliseconds(result.elapsed);
  }
}

BENCHMARK_CAPTURE(IsolationAblation, none, IsolationLevel::kNone)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(IsolationAblation, fault, IsolationLevel::kFault)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMillisecond);
BENCHMARK_CAPTURE(IsolationAblation, full, IsolationLevel::kFull)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMillisecond);

// Unixbench execl analogue: exec-chain cost per image replacement in the SAS.
void ExeclAblation(::benchmark::State& state) {
  SystemConfig sc;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    auto kernel = MakeSystem(sc);
    RegisterExeclHop(*kernel);
    ExeclResult result;
    auto pid = kernel->Spawn(MakeGuestEntry([&result](Guest& g) -> SimTask<void> {
                               co_await UnixbenchExecl(g, 200, &result);
                             }),
                             "execl");
    UF_CHECK(pid.ok());
    kernel->Run();
    SetIterationCycles(state, result.elapsed);
    state.counters["per_exec_us"] = result.PerExecUs();
  }
}
BENCHMARK(ExeclAblation)->Iterations(2)->UseManualTime()->Unit(::benchmark::kMillisecond);

// Fork latency as a function of the image (heap) size: the design predicts a small fixed cost
// plus a linear per-page PTE-duplication term — this sweep exposes the slope directly.
void ForkLatencyVsImageSize(::benchmark::State& state) {
  const uint64_t heap_mb = static_cast<uint64_t>(state.range(0));
  SystemConfig sc;
  sc.kernel.layout.heap_size = heap_mb * kMiB;
  sc.kernel.phys_mem_bytes = 3 * kGiB;
  for (auto _ : state) {
    auto kernel = MakeSystem(sc);
    Cycles latency = 0;
    auto pid = kernel->Spawn(
        MakeGuestEntry([&latency](Guest& g) -> SimTask<void> {
          auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
            co_await cg.Exit(0);
          });
          UF_CHECK(child.ok());
          latency = g.kernel().FindUproc(*child)->fork_stats.latency;
          (void)co_await g.Wait();
        }),
        "sweep");
    UF_CHECK(pid.ok());
    kernel->Run();
    SetIterationCycles(state, latency);
    state.counters["fork_us"] = ToMicroseconds(latency);
    state.counters["heap_MB"] = static_cast<double>(heap_mb);
  }
}
BENCHMARK(ForkLatencyVsImageSize)
    ->RangeMultiplier(4)->Range(1, 256)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
