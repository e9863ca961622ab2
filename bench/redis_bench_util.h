// Shared Redis-snapshot benchmark driver for Figures 3, 4 and 5: populates a database of the
// requested size (100 KB entries, as in §5.1), triggers a background save, and captures fork
// latency, overall save time, and the forked child's residency (measured while the child is
// still alive, right after it finishes serializing — a handshake over a pipe keeps it parked).
#ifndef UFORK_BENCH_REDIS_BENCH_UTIL_H_
#define UFORK_BENCH_REDIS_BENCH_UTIL_H_

#include "bench/bench_common.h"
#include "src/apps/miniredis.h"

namespace ufork {
namespace bench {

struct RedisRunResult {
  Cycles fork_latency = 0;
  Cycles save_elapsed = 0;   // BGSAVE trigger -> dump complete
  double child_uss_mb = 0.0;
  uint64_t dump_entries = 0;
  uint64_t storage_frames = 0;  // frames given host storage over the run (DESIGN.md §4.6)
  uint64_t peak_frames = 0;     // simulated resident high-water mark
};

inline constexpr uint64_t kRedisEntryBytes = 100 * 1024;  // 100 KB entries (§5.1)

inline RedisRunResult RunRedisBgSave(const SystemConfig& sc, uint64_t db_bytes) {
  RedisRunResult result;
  const uint64_t entries = std::max<uint64_t>(1, db_bytes / kRedisEntryBytes);
  auto kernel = RunGuestMain(sc, [&result, entries](Guest& g) -> SimTask<void> {
    auto db = MiniRedis::Create(g, /*buckets=*/4096);
    UF_CHECK(db.ok());
    const std::vector<std::byte> blob(kRedisEntryBytes, std::byte{0x5c});
    for (uint64_t i = 0; i < entries; ++i) {
      UF_CHECK(db->Set("key:" + std::to_string(i), blob).ok());
    }

    auto done_pipe = co_await g.Pipe();
    auto park_pipe = co_await g.Pipe();
    UF_CHECK(done_pipe.ok() && park_pipe.ok());
    const auto [done_r, done_w] = *done_pipe;
    const auto [park_r, park_w] = *park_pipe;

    const Cycles save_start = g.kernel().sched().Now();
    GuestFn child_fn = [done_r = done_r, done_w = done_w, park_r = park_r,
                        park_w = park_w](Guest& cg) -> SimTask<void> {
      // fork+pipe hygiene: drop the ends this side does not use so EOF propagates.
      (void)co_await cg.Close(done_r);
      (void)co_await cg.Close(park_w);
      auto child_db = MiniRedis::Attach(cg);
      UF_CHECK(child_db.ok());
      auto written = co_await child_db->Save("/dump.rdb.tmp");
      UF_CHECK(written.ok());
      UF_CHECK((co_await cg.Rename("/dump.rdb.tmp", "/dump.rdb")).ok());
      // Signal completion, then park until the parent finishes measuring.
      auto byte = cg.Malloc(16);
      UF_CHECK(byte.ok());
      UF_CHECK((co_await cg.Write(done_w, *byte, 1)).ok());
      (void)co_await cg.Read(park_r, *byte, 1);  // EOF when the parent closes park_w
      co_await cg.Exit(0);
    };
    auto child = co_await g.Fork(std::move(child_fn));
    UF_CHECK(child.ok());
    Uproc* child_proc = g.kernel().FindUproc(*child);
    UF_CHECK(child_proc != nullptr);
    result.fork_latency = child_proc->fork_stats.latency;

    auto byte = g.Malloc(16);
    UF_CHECK(byte.ok());
    auto done = co_await g.Read(done_r, *byte, 1);
    UF_CHECK(done.ok() && *done == 1);
    result.save_elapsed = g.kernel().sched().Now() - save_start;
    result.child_uss_mb = g.kernel().UprocUssMb(*child_proc);
    UF_CHECK((co_await g.Close(park_w)).ok());
    auto waited = co_await g.Wait();
    UF_CHECK(waited.ok() && waited->status == 0);

    auto info = co_await db->VerifyDump("/dump.rdb");
    UF_CHECK_MSG(info.ok(), "snapshot failed verification");
    result.dump_entries = info->entries;
    co_return;
  });
  UF_CHECK(result.dump_entries == entries);
  result.storage_frames = kernel->machine().frames().storage_frames();
  result.peak_frames = kernel->machine().frames().peak_frames();
  return result;
}

}  // namespace bench
}  // namespace ufork

#endif  // UFORK_BENCH_REDIS_BENCH_UTIL_H_
