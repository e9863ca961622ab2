// Fragmentation & compaction bench (paper §6 "Fragmentation" + our compaction extension), and
// the spawn-vs-fork+exec ablation (the "f+e only" design point of Table 1).
//
// Fragmentation scenario: a churn of short-lived μprocesses leaves holes in the single address
// space; we measure external fragmentation before/after compaction and the compactor's cost.
// Spawn ablation: end-to-end latency of running a program via posix_spawn vs fork+exec as the
// parent image grows — fork must duplicate the parent's page tables, spawn must not.
#include "bench/bench_common.h"
#include "src/ufork/compaction.h"

namespace ufork {
namespace bench {
namespace {

SimTask<void> ParkForever(Guest& g, const std::string& queue) {
  auto fd = co_await g.MqOpen(queue, true);
  UF_CHECK(fd.ok());
  auto buf = g.Malloc(16);
  UF_CHECK(buf.ok());
  (void)co_await g.Read(*fd, *buf, 1);
}

void FragmentationCompaction(::benchmark::State& state) {
  const int survivors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SystemConfig sc;
    sc.kernel.layout = HelloLayout();
    auto kernel = MakeSystem(sc);
    kernel->sched().set_allow_blocked_exit(true);
    // Interleave short-lived and parked μprocesses, then let the short-lived ones exit:
    // the classic checkerboard that blocks large contiguous allocations.
    for (int i = 0; i < survivors; ++i) {
      UF_CHECK(kernel
                   ->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             g.Compute(100);
                             co_return;
                           }),
                           "short")
                   .ok());
      GuestFn parked = [i](Guest& g) -> SimTask<void> {
        co_await ParkForever(g, "/mq/frag-park");
      };
      UF_CHECK(kernel->Spawn(MakeGuestEntry(std::move(parked)), "parked").ok());
    }
    kernel->Run();

    const AddressSpaceStats before = kernel->address_space().Stats();
    const Cycles t0 = kernel->sched().Now();
    auto stats = CompactAddressSpace(*kernel);
    UF_CHECK(stats.ok());
    const Cycles compaction_cycles = kernel->sched().Now() - t0;
    const AddressSpaceStats after = kernel->address_space().Stats();

    SetIterationCycles(state, compaction_cycles == 0 ? 1 : compaction_cycles);
    state.counters["frag_before"] = before.ExternalFragmentation();
    state.counters["frag_after"] = after.ExternalFragmentation();
    state.counters["largest_free_before"] = static_cast<double>(before.largest_free_block);
    state.counters["largest_free_after"] = static_cast<double>(after.largest_free_block);
    // The whole pass is one global pause: the frag-gate's stop-the-world reference point.
    state.counters["pause_cycles_max"] = static_cast<double>(compaction_cycles);
    state.counters["regions_moved"] = static_cast<double>(stats->regions_moved);
    state.counters["caps_relocated"] = static_cast<double>(stats->caps_relocated);
  }
}

BENCHMARK(FragmentationCompaction)
    ->Arg(8)
    ->Arg(32)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMicrosecond);

// Same checkerboard, reclaimed by the background CompactionService (DESIGN.md §4.13) instead
// of a stop-the-world pass: budgeted quanta interleave with the (parked) mutators, moved-from
// and freed regions pass through the revocation quarantine, and the sweep drains before the
// service retires. The frag-gate holds this row to >= 0.9x the stop-the-world row's recovered
// contiguity at <= 0.1x its pause.
void FragmentationCompactionIncremental(::benchmark::State& state) {
  const int survivors = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SystemConfig sc;
    sc.kernel.layout = HelloLayout();
    sc.kernel.compact_budget_pages = 8;
    sc.kernel.quarantine_freed_regions = true;
    auto kernel = MakeSystem(sc);
    kernel->sched().set_allow_blocked_exit(true);
    for (int i = 0; i < survivors; ++i) {
      UF_CHECK(kernel
                   ->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             g.Compute(100);
                             co_return;
                           }),
                           "short")
                   .ok());
      GuestFn parked = [i](Guest& g) -> SimTask<void> {
        co_await ParkForever(g, "/mq/frag-park");
      };
      UF_CHECK(kernel->Spawn(MakeGuestEntry(std::move(parked)), "parked").ok());
    }
    kernel->Run();  // short-lived μprocesses exit; the sweep drains their quarantined regions

    const AddressSpaceStats before = kernel->address_space().Stats();
    // Host-side elapsed virtual time spans a Run(), so use the drain clock (Now() outside a
    // simulated thread reads the boot clock, which only Run-external charges advance).
    const Cycles t0 = kernel->sched().CompletionTime();
    UF_CHECK(kernel->compaction().Kick());
    kernel->Run();  // compactd quanta advance until the pass lands and the sweep is drained
    const Cycles elapsed = kernel->sched().CompletionTime() - t0;
    const AddressSpaceStats after = kernel->address_space().Stats();
    UF_CHECK(after.quarantined_bytes == 0);

    SetIterationCycles(state, elapsed == 0 ? 1 : elapsed);
    state.counters["largest_free_before"] = static_cast<double>(before.largest_free_block);
    state.counters["largest_free_after"] = static_cast<double>(after.largest_free_block);
    state.counters["pause_cycles_max"] = static_cast<double>(kernel->stats().pause_cycles_max);
    state.counters["compact_steps"] = static_cast<double>(kernel->stats().compact_steps);
    state.counters["regions_moved"] = static_cast<double>(kernel->stats().compact_regions_moved);
    state.counters["caps_revoked"] = static_cast<double>(kernel->stats().caps_revoked);
  }
}

BENCHMARK(FragmentationCompactionIncremental)
    ->Arg(8)
    ->Arg(32)
    ->Iterations(2)
    ->UseManualTime()
    ->Unit(::benchmark::kMicrosecond);

void SpawnVsForkExec(::benchmark::State& state, bool use_spawn) {
  const uint64_t heap_mb = static_cast<uint64_t>(state.range(0));
  SystemConfig sc;
  sc.kernel.layout.heap_size = heap_mb * kMiB;
  for (auto _ : state) {
    auto kernel = MakeSystem(sc);
    kernel->procs().RegisterProgram("noop", MakeGuestEntry([](Guest& g) -> SimTask<void> {
      co_await g.Exit(0);
    }));
    Cycles elapsed = 0;
    auto pid = kernel->Spawn(
        MakeGuestEntry([&elapsed, use_spawn](Guest& g) -> SimTask<void> {
          Scheduler& sched = g.kernel().sched();
          const Cycles t0 = sched.Now();
          if (use_spawn) {
            auto child = co_await g.SpawnProgram("noop");
            UF_CHECK(child.ok());
          } else {
            auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
              (void)co_await cg.Exec("noop");
              co_await cg.Exit(1);
            });
            UF_CHECK(child.ok());
          }
          (void)co_await g.Wait();
          elapsed = sched.Now() - t0;
        }),
        "launcher");
    UF_CHECK(pid.ok());
    kernel->Run();
    SetIterationCycles(state, elapsed);
    state.counters["latency_us"] = ToMicroseconds(elapsed);
    state.counters["parent_heap_MB"] = static_cast<double>(heap_mb);
  }
}

BENCHMARK_CAPTURE(SpawnVsForkExec, posix_spawn, true)
    ->Arg(4)->Arg(32)->Arg(128)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);
BENCHMARK_CAPTURE(SpawnVsForkExec, fork_exec, false)
    ->Arg(4)->Arg(32)->Arg(128)
    ->Iterations(2)->UseManualTime()->Unit(::benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
