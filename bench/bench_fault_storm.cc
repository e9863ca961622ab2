// Fault-storm window sweep — the workload the adaptive fault-around resolver targets.
//
// Two storm shapes, both μFork/CoPA (the system where the trap + PTE fixed costs matter most):
//
//  * RedisUpdateStorm — the Fig. 3 background-save scenario with a live parent (the paper's U4
//    usage: "save concurrently with the main database process"). After BGSAVE forks, the
//    parent rewrites every key with a fresh same-size value — dense sequential CoW write
//    storms through the value blocks — while the child's serialization pass walks every entry
//    capability (CoPA cap-load storm) and bulk-reads the values.
//
//  * ZygoteStorm — the Fig. 6 FaaS pattern: a warm runtime heap forked per request; every
//    child dirties a slice of the warm state page by page (no multi-page access spans, so only
//    the adaptive controller can batch it).
//
// The sweep axis is the fault-around window: arg 0 = adaptive (max 16), otherwise a fixed
// window of that many pages. window=1 is the pre-fault-around resolver and the baseline the
// EXPERIMENTS.md "Fault storm" table normalizes against. Iteration time is the post-fork
// virtual elapsed; `fault_Mcycles` is KernelStats::fault_cycles (trap + resolution charges
// only), the deterministic quantity the storm.adaptive_gain row of bench/gates.py gates on.
#include "bench/redis_bench_util.h"

namespace ufork {
namespace bench {
namespace {

FaultAroundConfig WindowParam(int64_t arg) {
  FaultAroundConfig fault_around;
  if (arg == 0) {
    fault_around.max_window = kMaxFaultAroundWindow;
    fault_around.adaptive = true;
  } else {
    fault_around.max_window = static_cast<uint32_t>(arg);
    fault_around.adaptive = false;
  }
  return fault_around;
}

struct StormResult {
  Cycles post_fork = 0;  // fork trigger -> storm drained (child reaped)
  KernelStats stats;
};

void ReportStorm(::benchmark::State& state, const StormResult& result) {
  SetIterationCycles(state, result.post_fork);
  state.counters["fault_Mcycles"] =
      static_cast<double>(result.stats.fault_cycles) / 1e6;
  state.counters["faults_taken"] = static_cast<double>(result.stats.faults_taken);
  state.counters["fa_pages"] =
      static_cast<double>(result.stats.pages_resolved_by_faultaround);
  state.counters["pages_copied"] = static_cast<double>(result.stats.pages_copied_on_fault);
  state.counters["pages_reclaimed"] =
      static_cast<double>(result.stats.pages_reclaimed_in_place);
  state.counters["pages_wasted"] =
      static_cast<double>(result.stats.speculative_pages_wasted);
}

// --- Redis background save with a live parent ---------------------------------------------------

StormResult RunRedisUpdateStorm(const SystemConfig& sc, uint64_t entries) {
  StormResult result;
  auto kernel = RunGuestMain(sc, [&result, entries](Guest& g) -> SimTask<void> {
    auto db = MiniRedis::Create(g, /*buckets=*/1024);
    UF_CHECK(db.ok());
    const std::vector<std::byte> blob(kRedisEntryBytes, std::byte{0x5c});
    for (uint64_t i = 0; i < entries; ++i) {
      UF_CHECK(db->Set("key:" + std::to_string(i), blob).ok());
    }
    const Cycles start = g.kernel().sched().Now();
    GuestFn child_fn = [](Guest& cg) -> SimTask<void> {
      auto child_db = MiniRedis::Attach(cg);
      UF_CHECK(child_db.ok());
      auto written = co_await child_db->Save("/storm.rdb.tmp");
      UF_CHECK(written.ok());
      UF_CHECK((co_await cg.Rename("/storm.rdb.tmp", "/storm.rdb")).ok());
      co_await cg.Exit(0);
    };
    auto child = co_await g.Fork(std::move(child_fn));
    UF_CHECK(child.ok());
    // The parent keeps serving writes during the save: every key is rewritten with a
    // same-size value, which MiniRedis updates in place — a CoW storm through the value
    // blocks plus CoPA cap-chases down the bucket chains.
    const std::vector<std::byte> update(kRedisEntryBytes, std::byte{0xd7});
    for (uint64_t i = 0; i < entries; ++i) {
      UF_CHECK(db->Set("key:" + std::to_string(i), update).ok());
    }
    auto waited = co_await g.Wait();
    UF_CHECK(waited.ok() && waited->status == 0);
    result.post_fork = g.kernel().sched().Now() - start;
    // The dump must hold the pre-fork snapshot regardless of the parent's updates.
    auto info = co_await db->VerifyDump("/storm.rdb");
    UF_CHECK_MSG(info.ok() && info->entries == entries, "storm snapshot corrupt");
    co_return;
  });
  result.stats = kernel->stats();
  return result;
}

void FaultStormRedis(::benchmark::State& state) {
  SystemConfig sc;
  sc.system = System::kUfork;
  sc.kernel.layout = RedisLayout();
  sc.kernel.fault_around = WindowParam(state.range(0));
  for (auto _ : state) {
    const StormResult result = RunRedisUpdateStorm(sc, /*entries=*/20);  // 2 MB database
    ReportStorm(state, result);
  }
}

// --- FaaS zygote storm --------------------------------------------------------------------------

inline constexpr uint64_t kZygoteWarmBytes = 2 * kMiB;
inline constexpr uint64_t kZygoteTouchBytes = 256 * kKiB;  // per-request dirty slice
inline constexpr int kZygoteRequests = 8;

StormResult RunZygoteStorm(const SystemConfig& sc) {
  StormResult result;
  auto kernel = RunGuestMain(sc, [&result](Guest& g) -> SimTask<void> {
    auto warm = g.Malloc(kZygoteWarmBytes);
    UF_CHECK(warm.ok());
    std::vector<std::byte> fill(kZygoteWarmBytes, std::byte{0x42});
    UF_CHECK(g.WriteBytes(*warm, warm->address(), fill).ok());
    UF_CHECK(g.GotStore(kGotSlotFirstUser, *warm).ok());
    const Cycles start = g.kernel().sched().Now();
    for (int request = 0; request < kZygoteRequests; ++request) {
      GuestFn child_fn = [](Guest& cg) -> SimTask<void> {
        auto cap = cg.GotLoad(kGotSlotFirstUser);
        UF_CHECK(cap.ok());
        // Page-at-a-time dirtying: no access span for the resolver to lean on, so batching
        // has to come from the adaptive controller.
        std::vector<std::byte> chunk(kPageSize, std::byte{0x99});
        for (uint64_t off = 0; off < kZygoteTouchBytes; off += kPageSize) {
          UF_CHECK(cg.WriteBytes(*cap, cap->address() + off, chunk).ok());
        }
        co_await cg.Exit(0);
      };
      auto child = co_await g.Fork(std::move(child_fn));
      UF_CHECK(child.ok());
      auto waited = co_await g.Wait();
      UF_CHECK(waited.ok() && waited->status == 0);
    }
    result.post_fork = g.kernel().sched().Now() - start;
    co_return;
  });
  result.stats = kernel->stats();
  return result;
}

void FaultStormZygote(::benchmark::State& state) {
  SystemConfig sc;
  sc.system = System::kUfork;
  sc.kernel.layout = FaasLayout();
  sc.kernel.fault_around = WindowParam(state.range(0));
  for (auto _ : state) {
    const StormResult result = RunZygoteStorm(sc);
    ReportStorm(state, result);
  }
}

#define UF_STORM_SWEEP(fn)                                                      \
  BENCHMARK(fn)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Iterations(2) \
      ->UseManualTime()->Unit(::benchmark::kMillisecond)

UF_STORM_SWEEP(FaultStormRedis);
UF_STORM_SWEEP(FaultStormZygote);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
