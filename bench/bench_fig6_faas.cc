// Figure 6 — FaaS function throughput (functions/second).
//
// The Zygote pre-warming pattern: a coordinator (pinned to one core, as in the paper's setup:
// 1 of the 4 Morello cores coordinates) forks the warm runtime for every request; executors
// run FunctionBench float_operation on the remaining 1-3 cores. Paper result to reproduce
// (shape): throughput scales with worker cores and μFork sustains ~24% more functions/s than
// CheriBSD because the benchmark is fork-latency-bound; TOCTTOU protection is negligible here
// (the function makes no buffer-passing syscalls).
#include "bench/bench_common.h"
#include "src/apps/faas.h"

namespace ufork {
namespace bench {
namespace {

void FaasThroughput(::benchmark::State& state, System system, IsolationLevel isolation) {
  const int worker_cores = static_cast<int>(state.range(0));
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = FaasLayout();
  sc.kernel.cores = 1 + worker_cores;  // coordinator core + function cores
  sc.kernel.isolation = isolation;
  for (auto _ : state) {
    ZygoteResult result;
    RunGuestMain(
        sc,
        [&result, worker_cores](Guest& g) -> SimTask<void> {
          UF_CHECK(InitializeZygoteRuntime(g).ok());
          ZygoteParams params;
          params.window = Milliseconds(100);  // virtual-time window; rate extrapolates to 10 s
          params.worker_cores = worker_cores;
          params.float_iterations = 22'000;
          co_await ZygoteCoordinator(g, params, &result);
        },
        /*pinned_core=*/0);
    SetIterationCycles(state, result.elapsed);
    state.counters["functions_per_s"] = result.FunctionsPerSecond();
    state.counters["completed"] = static_cast<double>(result.functions_completed);
  }
}

#define UF_FIG6(name, ...)                              \
  BENCHMARK_CAPTURE(FaasThroughput, name, __VA_ARGS__) \
      ->DenseRange(1, 3, 1)                             \
      ->Iterations(2)                                   \
      ->UseManualTime()                                 \
      ->Unit(::benchmark::kMillisecond)

UF_FIG6(uFork, System::kUfork, IsolationLevel::kFull);
UF_FIG6(uFork_NoTocttou, System::kUfork, IsolationLevel::kFault);
UF_FIG6(CheriBSD, System::kCheriBsd, IsolationLevel::kFull);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
