// Redis snapshot demo (paper use-case U2+U4): a key-value store serves writes while a forked
// child saves a consistent point-in-time snapshot in the background. Runs the same workload
// under all three copy strategies and prints the trade-off triangle the paper's Figures 4/5
// plot (fork latency vs child memory).
//
//   $ ./redis_snapshot
#include <cstdio>

#include "src/apps/miniredis.h"
#include "src/baseline/system.h"

using namespace ufork;

namespace {

void RunOnce(ForkStrategy strategy) {
  KernelConfig config;
  config.layout.heap_size = 64 * kMiB;
  config.strategy = strategy;
  auto kernel = MakeUforkKernel(config);
  auto pid = kernel->Spawn(
      MakeGuestEntry([strategy](Guest& g) -> SimTask<void> {
        auto db = MiniRedis::Create(g, 1024);
        UF_CHECK(db.ok());
        const std::vector<std::byte> blob(32 * 1024, std::byte{0xAB});
        for (int i = 0; i < 200; ++i) {  // ~6.4 MB database
          UF_CHECK(db->Set("user:" + std::to_string(i), blob).ok());
        }

        const Cycles t0 = g.kernel().sched().Now();
        auto child = co_await db->BgSave("/var/redis/dump.rdb");
        UF_CHECK(child.ok());
        // A copy: the wait() below reaps the child, and its Uproc with it.
        const ForkStats fork_stats = g.kernel().FindUproc(*child)->fork_stats;

        // Keep serving while the snapshot runs: overwrite, insert, delete.
        for (int i = 0; i < 50; ++i) {
          UF_CHECK(db->Set("user:" + std::to_string(i),
                           std::vector<std::byte>(32 * 1024, std::byte{0xCD}))
                       .ok());
        }
        UF_CHECK(db->Set("session:new", blob).ok());
        auto erased = db->Del("user:199");
        UF_CHECK(erased.ok());

        auto waited = co_await g.Wait();
        UF_CHECK(waited.ok() && waited->status == 0);
        const Cycles save_ms = g.kernel().sched().Now() - t0;

        auto info = co_await db->VerifyDump("/var/redis/dump.rdb");
        UF_CHECK(info.ok());
        std::printf(
            "  %-9s fork %8.1f μs   save %7.2f ms   dump %3lu entries (%5.1f MB, "
            "fork-time state)\n",
            ForkStrategyName(strategy), ToMicroseconds(fork_stats.latency),
            ToMilliseconds(save_ms), info->entries,
            static_cast<double>(info->value_bytes) / static_cast<double>(kMiB));
        std::printf("            pages: %lu mapped, %lu eager copies; on-fault copies %lu "
                    "(CoPA faults %lu)\n",
                    fork_stats.pages_mapped, fork_stats.pages_copied_eagerly,
                    g.kernel().stats().pages_copied_on_fault,
                    g.kernel().machine().cap_load_faults());
      }),
      "redis");
  UF_CHECK(pid.ok());
  kernel->Run();
}

}  // namespace

int main() {
  std::printf("Redis BGSAVE under a 6.4 MB database, 50 concurrent overwrites (§3.8):\n");
  RunOnce(ForkStrategy::kCopa);
  RunOnce(ForkStrategy::kCoa);
  RunOnce(ForkStrategy::kFull);
  std::printf("\nCoPA shares everything the child only *reads*; CoA copies everything the "
              "child touches;\nFullCopy pays everything up front. The snapshot is identical "
              "in all three.\n");
  return 0;
}
