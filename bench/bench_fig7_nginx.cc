// Figure 7 — Nginx throughput (requests/second) with 1-3 pre-forked workers.
//
// A master forks long-lived workers that serve a closed loop of wrk-style connections. Paper
// results to reproduce (shape):
//   * μFork is restricted to a single core (Unikraft's big-kernel-lock SMP, §4.5); still,
//     going from 1 to 3 workers gains ~15.6% because workers yield during I/O;
//   * CheriBSD restricted to one core is ~9% *slower* than single-core μFork (trap syscalls,
//     TLB-flushing context switches);
//   * CheriBSD allowed to scale across cores wins overall — SMP, not fork, is μFork's current
//     limit there;
//   * TOCTTOU protection costs ~6.5% of μFork's throughput (requests pass buffers on every
//     syscall).
#include "bench/bench_common.h"
#include "src/apps/httpd.h"

namespace ufork {
namespace bench {
namespace {

void NginxThroughput(::benchmark::State& state, System system, int cores,
                     IsolationLevel isolation) {
  const int workers = static_cast<int>(state.range(0));
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HttpdLayout();
  sc.kernel.cores = cores;
  sc.kernel.isolation = isolation;
  for (auto _ : state) {
    HttpdResult result;
    HttpdParams params;
    params.workers = workers;
    params.connections = 8;
    params.requests_per_connection = 400;
    if (system == System::kUfork) {
      // bhyve + VirtIO + Unikraft's immature network stack (§5.1).
      params.net_stack_cost = 25'000;
    }
    RunGuestMain(sc, [&result, params](Guest& g) -> SimTask<void> {
      co_await HttpdBenchmark(g, params, &result);
    });
    SetIterationCycles(state, result.elapsed);
    state.counters["requests_per_s"] = result.RequestsPerSecond();
  }
}

#define UF_FIG7(name, ...)                              \
  BENCHMARK_CAPTURE(NginxThroughput, name, __VA_ARGS__) \
      ->DenseRange(1, 3, 1)                             \
      ->Iterations(2)                                   \
      ->UseManualTime()                                 \
      ->Unit(::benchmark::kMillisecond)

UF_FIG7(uFork_1core, System::kUfork, 1, IsolationLevel::kFull);
UF_FIG7(uFork_1core_NoTocttou, System::kUfork, 1, IsolationLevel::kFault);
UF_FIG7(CheriBSD_multicore, System::kCheriBsd, 4, IsolationLevel::kFull);
UF_FIG7(CheriBSD_1core, System::kCheriBsd, 1, IsolationLevel::kFull);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
