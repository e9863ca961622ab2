// FaaS Zygote demo (paper use-case U2+U5): initialize a language runtime once, then serve
// each request by forking the warm Zygote — the child inherits modules, constant pools and
// bytecode through fork's state duplication and starts in microseconds.
//
//   $ ./faas_zygote
#include <cstdio>

#include "src/apps/faas.h"
#include "src/baseline/system.h"

using namespace ufork;

int main() {
  KernelConfig config;
  config.layout.heap_size = 8 * kMiB;
  config.cores = 4;
  auto kernel = MakeUforkKernel(config);

  ZygoteResult result;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&result](Guest& g) -> SimTask<void> {
        const Cycles warm_start = g.kernel().sched().Now();
        UF_CHECK(InitializeZygoteRuntime(g).ok());
        std::printf("[zygote pid=%ld] runtime warm-up took %.2f ms (paid once)\n", g.pid(),
                    ToMilliseconds(g.kernel().sched().Now() - warm_start));

        // One request end to end, instrumented.
        const Cycles t0 = g.kernel().sched().Now();
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          auto value = FloatOperation(cg, 5'000);
          UF_CHECK(value.ok());
          std::printf("[function pid=%ld] float_operation(5000) = %.4f — warm runtime "
                      "inherited via fork\n",
                      cg.pid(), *value);
          co_await cg.Exit(0);
        });
        UF_CHECK(child.ok());
        (void)co_await g.Wait();
        std::printf("[zygote] single request latency (fork→exit→reap): %.1f μs\n",
                    ToMicroseconds(g.kernel().sched().Now() - t0));

        // Now saturate 3 worker cores for a 50 ms window.
        ZygoteParams params;
        params.window = Milliseconds(50);
        params.worker_cores = 3;
        params.float_iterations = 5'000;
        co_await ZygoteCoordinator(g, params, &result);
      }),
      "zygote", /*pinned_core=*/0);
  UF_CHECK(pid.ok());
  kernel->Run();

  std::printf("[zygote] window: %lu functions in %.1f ms → %.0f functions/s on 3 cores\n",
              result.functions_completed, ToMilliseconds(result.elapsed),
              result.FunctionsPerSecond());
  std::printf("kernel: %lu forks, %lu exits, %lu CoPA faults\n", kernel->stats().forks,
              kernel->stats().exits, kernel->machine().cap_load_faults());
  return 0;
}
