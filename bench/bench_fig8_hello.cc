// Figure 8 — fork latency and per-process memory for a minimal ("hello world") program.
//
// Forks a trivial μprocess and measures (a) the latency of the fork call and (b) the memory
// the new process consumes (unique set size + backend per-process overhead), sampled while the
// child is parked alive. Paper results to reproduce:
//   latency: μFork 54 μs | CheriBSD 197 μs (3.7×) | Nephele 10.7 ms (198×)
//   memory:  μFork 0.13 MB | CheriBSD 0.29 MB (2.2×) | Nephele 1.6 MB (12.3×)
#include "bench/bench_common.h"

namespace ufork {
namespace bench {
namespace {

struct HelloResult {
  Cycles fork_latency = 0;
  double child_uss_mb = 0.0;
};

HelloResult RunHelloFork(const SystemConfig& sc) {
  HelloResult result;
  RunGuestMain(sc, [&result](Guest& g) -> SimTask<void> {
    auto park = co_await g.Pipe();
    UF_CHECK(park.ok());
    const auto [park_r, park_w] = *park;
    GuestFn child_fn = [park_r = park_r, park_w = park_w](Guest& cg) -> SimTask<void> {
      (void)co_await cg.Close(park_w);
      // "hello world": format a greeting in guest memory, then park for measurement.
      auto line = cg.PlaceString("hello, world\n");
      UF_CHECK(line.ok());
      auto byte = cg.Malloc(16);
      UF_CHECK(byte.ok());
      (void)co_await cg.Read(park_r, *byte, 1);  // EOF when the parent closes
      co_await cg.Exit(0);
    };
    auto child = co_await g.Fork(std::move(child_fn));
    UF_CHECK(child.ok());
    Uproc* child_proc = g.kernel().FindUproc(*child);
    UF_CHECK(child_proc != nullptr);
    result.fork_latency = child_proc->fork_stats.latency;
    // Give the child a slice to run its (tiny) body before sampling.
    (void)co_await g.Nanosleep(Microseconds(200));
    result.child_uss_mb = g.kernel().UprocUssMb(*child_proc);
    UF_CHECK((co_await g.Close(park_w)).ok());
    (void)co_await g.Wait();
  });
  return result;
}

void HelloFork(::benchmark::State& state, System system) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    const HelloResult result = RunHelloFork(sc);
    SetIterationCycles(state, result.fork_latency);
    state.counters["fork_us"] = ToMicroseconds(result.fork_latency);
    state.counters["mem_MB"] = result.child_uss_mb;
  }
}

BENCHMARK_CAPTURE(HelloFork, uFork, System::kUfork)
    ->Iterations(5)
    ->UseManualTime()
    ->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(HelloFork, CheriBSD, System::kCheriBsd)
    ->Iterations(5)
    ->UseManualTime()
    ->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(HelloFork, Nephele, System::kNephele)
    ->Iterations(5)
    ->UseManualTime()
    ->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
