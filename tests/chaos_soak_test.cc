// Chaos soak (DESIGN.md §4.9, EXPERIMENTS.md "Chaos soak").
//
// Every fault site is armed with a seeded probabilistic policy while a process tree hammers
// fork, mmap, pipes, message queues, and the ramdisk. Under that storm the kernel must uphold
// three properties, checked per seed:
//
//   1. Containment — every injected failure surfaces as an errno to exactly one μprocess;
//      workers observing one exit with a sentinel status. No host CHECK fires, no other
//      worker is disturbed.
//   2. No leaks — after the tree drains, frame accounting balances against the page tables
//      (check_frame_invariants is also on, so every syscall exit re-proves it mid-storm).
//   3. Determinism — the entire run, injected failures included, is a pure function of
//      (system, seed): replaying a seed reproduces the completion time and every kernel
//      counter bit-for-bit. A chaos failure ships as a one-line repro: its seed.
//
// Seeds 1..8 always run; UFORK_CHAOS_SEEDS="123,456" appends extra seeds (CI injects a
// $GITHUB_RUN_ID-derived one so the fleet explores fresh schedules while any failure stays
// replayable from the logged seed).
//
// UFORK_SOAK_COMPACT=1 additionally runs the storm with the incremental compaction service
// live: budgeted region moves, freed-region quarantine, and the budgeted revocation sweep,
// with the kCompactStep / kRevokeSweep sites armed alongside everything else. A mid-step hit
// must leave the struck region whole at one base and the quarantine consistent, and the
// per-seed replay must still be bit-identical. After each run the quarantine is drained and
// the revocation invariant is proved: no tagged capability bounded inside a freed-and-swept
// range survives in any live frame.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "src/ufork/revocation.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

constexpr int kWorkers = 3;
constexpr int kIterations = 3;
constexpr int kWorkerFailedExit = 42;  // a worker saw an injected errno and bailed out
constexpr double kFailureProbability = 0.02;

// UFORK_SOAK_COMPACT=1: storm with the incremental compaction service live.
bool SoakCompact() {
  const char* s = std::getenv("UFORK_SOAK_COMPACT");
  return s != nullptr && std::atoi(s) != 0;
}

KernelConfig SoakConfig(bool demand_paging, bool compact) {
  KernelConfig config;
  config.demand_paging = demand_paging;
  if (compact) {
    config.compact_budget_pages = 4;
    config.compact_step_interval = 2'000;
    config.quarantine_freed_regions = true;
    config.compact_trigger.enabled = true;
    config.compact_trigger.arm_fragmentation = 0.3;
    config.compact_trigger.clear_fragmentation = 0.1;
  }
  config.layout.text_size = 32 * kKiB;
  config.layout.rodata_size = 8 * kKiB;
  config.layout.got_size = 4 * kKiB;
  config.layout.data_size = 8 * kKiB;
  config.layout.heap_size = 256 * kKiB;
  config.layout.stack_size = 32 * kKiB;
  config.layout.tls_size = 4 * kKiB;
  config.layout.mmap_size = 64 * kKiB;
  config.check_frame_invariants = true;
  return config;
}

// One worker's storm: every major subsystem, every iteration. The first injected errno ends
// the worker with the sentinel status — anything else (a wrong value read back, a blocked
// queue, a host abort) fails the test itself. Every operation is written so that it cannot
// block regardless of where the injector strikes: pipes are read for exactly the bytes
// written, queues are received from only after a successful send.
SimTask<void> RunWorker(Guest& g, int id) {
  for (int iter = 0; iter < kIterations; ++iter) {
    // Anonymous memory.
    auto mapped = co_await g.MmapAnon(2 * kPageSize);
    if (!mapped.ok()) co_await g.Exit(kWorkerFailedExit);
    for (uint64_t off = 0; off < 2 * kPageSize; off += kPageSize) {
      auto stored = g.Store<uint64_t>(*mapped, mapped->base() + off, off + 1);
      if (!stored.ok()) co_await g.Exit(kWorkerFailedExit);
    }
    auto loaded = g.Load<uint64_t>(*mapped, mapped->base() + kPageSize);
    if (!loaded.ok()) co_await g.Exit(kWorkerFailedExit);
    CO_ASSERT_EQ(*loaded, kPageSize + 1);

    // Heap (CoW-break pressure in forked workers: tinyalloc metadata lives on shared pages).
    auto block = g.Malloc(256);
    if (!block.ok()) co_await g.Exit(kWorkerFailedExit);
    auto heap_store = g.Store<uint64_t>(*block, block->base(), 0xABCDu + iter);
    if (!heap_store.ok()) co_await g.Exit(kWorkerFailedExit);
    auto heap_load = g.Load<uint64_t>(*block, block->base());
    if (!heap_load.ok()) co_await g.Exit(kWorkerFailedExit);
    CO_ASSERT_EQ(*heap_load, 0xABCDu + iter);

    // Ramdisk.
    const std::string path = "/chaos/worker-" + std::to_string(id);
    auto fd = co_await g.Open(path, kOpenRead | kOpenWrite | kOpenCreate);
    if (!fd.ok()) co_await g.Exit(kWorkerFailedExit);
    auto file_buf = g.Malloc(6000);
    if (!file_buf.ok()) co_await g.Exit(kWorkerFailedExit);
    auto wrote = co_await g.Write(*fd, *file_buf, 6000);
    if (!wrote.ok()) co_await g.Exit(kWorkerFailedExit);
    auto sought = co_await g.Seek(*fd, 0, kSeekSet);
    if (!sought.ok()) co_await g.Exit(kWorkerFailedExit);
    auto file_read = co_await g.Read(*fd, *file_buf, 6000);
    if (!file_read.ok()) co_await g.Exit(kWorkerFailedExit);
    CO_ASSERT_EQ(*file_read, 6000);
    auto closed = co_await g.Close(*fd);
    if (!closed.ok()) co_await g.Exit(kWorkerFailedExit);

    // Message queues — receive only after a successful send, so the queue can never block.
    auto mq = co_await g.MqOpen("/mq/chaos-" + std::to_string(id), /*create=*/true);
    if (!mq.ok()) co_await g.Exit(kWorkerFailedExit);
    auto msg = g.Malloc(96);
    if (!msg.ok()) co_await g.Exit(kWorkerFailedExit);
    auto sent = co_await g.Write(*mq, *msg, 96);
    if (!sent.ok()) co_await g.Exit(kWorkerFailedExit);
    auto received = co_await g.Read(*mq, *msg, 96);
    if (!received.ok()) co_await g.Exit(kWorkerFailedExit);
    CO_ASSERT_EQ(*received, 96);

    // Pipes — read back exactly the bytes the write reported, then close both ends.
    auto pipe = co_await g.Pipe();
    if (!pipe.ok()) co_await g.Exit(kWorkerFailedExit);
    auto pipe_written = co_await g.Write(pipe->second, *msg, 96);
    if (!pipe_written.ok()) co_await g.Exit(kWorkerFailedExit);
    if (*pipe_written > 0) {
      auto pipe_read = co_await g.Read(pipe->first, *msg, static_cast<uint64_t>(*pipe_written));
      if (!pipe_read.ok()) co_await g.Exit(kWorkerFailedExit);
      CO_ASSERT_EQ(*pipe_read, *pipe_written);
    }
    auto closed_r = co_await g.Close(pipe->first);
    auto closed_w = co_await g.Close(pipe->second);
    if (!closed_r.ok() || !closed_w.ok()) co_await g.Exit(kWorkerFailedExit);
  }
  co_await g.Exit(0);
}

// The init process: waves of forked workers. A failed fork is itself an acceptable injection
// outcome (the rollback tests prove it leaves no ghost); we only wait for forks that
// succeeded, and every reaped status must be clean-exit or the injection sentinel.
SimTask<void> RunInit(Guest& g) {
  for (int wave = 0; wave < kIterations; ++wave) {
    int forked = 0;
    for (int id = 0; id < kWorkers; ++id) {
      auto child = co_await g.Fork([id](Guest& cg) -> SimTask<void> {
        co_await RunWorker(cg, id);
      });
      if (child.ok()) {
        ++forked;
      } else {
        // fork may only fail with the injected errno.
        CO_ASSERT_EQ(child.code(), Code::kErrNoMem);
      }
    }
    for (int reaped = 0; reaped < forked; ++reaped) {
      auto waited = co_await g.Wait();
      CO_ASSERT_OK(waited);
      CO_ASSERT_TRUE(waited->status == 0 || waited->status == kWorkerFailedExit);
    }
  }
  co_await g.Exit(0);
}

struct SoakRun {
  Cycles completion = 0;
  KernelStats stats;
  uint64_t failures_injected = 0;
  uint64_t frames_in_use = 0;
};

using KernelFactory = std::unique_ptr<Kernel> (*)(KernelConfig config);

SoakRun RunSoak(KernelFactory make, uint64_t seed, bool demand_paging, bool compact) {
  auto kernel = make(SoakConfig(demand_paging, compact));
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             co_await RunInit(g);
                           }),
                           "chaos-init");
  EXPECT_TRUE(pid.ok());
  // Arm after Spawn (mapping the init image must succeed) but before any guest runs: from the
  // first scheduled instruction on, every site can fire.
  kernel->fault_injector().ArmAll(FaultPolicy::Probabilistic(kFailureProbability), seed);
  kernel->Run();
  kernel->fault_injector().DisarmAll();

  SoakRun run;
  run.completion = kernel->sched().CompletionTime();
  run.stats = kernel->stats();
  run.failures_injected = kernel->fault_injector().total_failures();
  run.frames_in_use = kernel->machine().frames().frames_in_use();

  // Post-storm invariants: the tree drained, accounting balances, nothing leaked.
  EXPECT_EQ(kernel->LivePids().size(), 0u) << "seed " << seed;
  EXPECT_TRUE(kernel->CheckFrameAccounting().ok()) << "seed " << seed;
  if (run.stats.regions_tombstoned == 0) {
    EXPECT_EQ(run.frames_in_use, 0u) << "frames leaked under seed " << seed;
  }
  if (compact) {
    // Whatever the injector did to compaction quanta mid-storm, the quarantine must drain
    // cleanly and the revocation invariant must hold: no tagged capability with bounds
    // inside a freed-and-swept range is loadable from any live frame.
    SweepQuarantineToCompletion(*kernel);
    const auto invariant = CheckRevocationInvariant(*kernel);
    EXPECT_TRUE(invariant.ok()) << "seed " << seed << ": "
                                << (invariant.ok() ? "" : invariant.error().message);
    EXPECT_EQ(kernel->address_space().Stats().quarantined_bytes, 0u) << "seed " << seed;
  }
  return run;
}

void ExpectStatsEq(const KernelStats& a, const KernelStats& b, uint64_t seed) {
  EXPECT_EQ(a.forks, b.forks) << "seed " << seed;
  EXPECT_EQ(a.exits, b.exits) << "seed " << seed;
  EXPECT_EQ(a.syscalls, b.syscalls) << "seed " << seed;
  EXPECT_EQ(a.pages_copied_on_fault, b.pages_copied_on_fault) << "seed " << seed;
  EXPECT_EQ(a.caps_relocated_on_fault, b.caps_relocated_on_fault) << "seed " << seed;
  EXPECT_EQ(a.caps_stripped, b.caps_stripped) << "seed " << seed;
  EXPECT_EQ(a.tocttou_copies, b.tocttou_copies) << "seed " << seed;
  EXPECT_EQ(a.faults_taken, b.faults_taken) << "seed " << seed;
  EXPECT_EQ(a.pages_resolved_by_faultaround, b.pages_resolved_by_faultaround) << "seed " << seed;
  EXPECT_EQ(a.pages_reclaimed_in_place, b.pages_reclaimed_in_place) << "seed " << seed;
  EXPECT_EQ(a.speculative_pages_wasted, b.speculative_pages_wasted) << "seed " << seed;
  EXPECT_EQ(a.pages_demand_filled, b.pages_demand_filled) << "seed " << seed;
  EXPECT_EQ(a.fault_cycles, b.fault_cycles) << "seed " << seed;
  EXPECT_EQ(a.regions_tombstoned, b.regions_tombstoned) << "seed " << seed;
  // Incremental compaction and revocation are part of the deterministic timeline: quantum
  // counts, moves, barrier parks and revocations must replay bit-identically too.
  EXPECT_EQ(a.compact_steps, b.compact_steps) << "seed " << seed;
  EXPECT_EQ(a.compact_regions_moved, b.compact_regions_moved) << "seed " << seed;
  EXPECT_EQ(a.compact_parked, b.compact_parked) << "seed " << seed;
  EXPECT_EQ(a.pause_cycles_max, b.pause_cycles_max) << "seed " << seed;
  EXPECT_EQ(a.quarantined_bytes, b.quarantined_bytes) << "seed " << seed;
  EXPECT_EQ(a.caps_revoked, b.caps_revoked) << "seed " << seed;
  EXPECT_EQ(a.per_syscall, b.per_syscall) << "seed " << seed;
}

std::vector<uint64_t> SoakSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 8; ++s) {
    seeds.push_back(s);
  }
  if (const char* extra = std::getenv("UFORK_CHAOS_SEEDS"); extra != nullptr) {
    const std::string spec(extra);
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string token = spec.substr(pos, comma - pos);
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
      pos = comma + 1;
    }
  }
  return seeds;
}

void SoakSystem(const char* name, KernelFactory make, bool demand_paging = false,
                bool compact = false) {
  uint64_t total_failures = 0;
  uint64_t total_forks = 0;
  uint64_t total_syscalls = 0;
  uint64_t total_compact_steps = 0;
  uint64_t total_caps_revoked = 0;
  const std::vector<uint64_t> seeds = SoakSeeds();
  for (const uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakRun first = RunSoak(make, seed, demand_paging, compact);
    const SoakRun replay = RunSoak(make, seed, demand_paging, compact);
    EXPECT_EQ(first.completion, replay.completion)
        << "chaos run is not a pure function of the seed";
    EXPECT_EQ(first.failures_injected, replay.failures_injected);
    ExpectStatsEq(first.stats, replay.stats, seed);
    total_failures += first.failures_injected;
    total_forks += first.stats.forks;
    total_syscalls += first.stats.syscalls;
    total_compact_steps += first.stats.compact_steps;
    total_caps_revoked += first.stats.caps_revoked;
  }
  // The storm must actually storm: across the seed set, injections fired.
  EXPECT_GT(total_failures, 0u);
  if (compact) {
    // And the compaction soak must actually compact: the service ran quanta under fire.
    EXPECT_GT(total_compact_steps, 0u);
  }
  // One summary line per system so a CI log records what the soak exercised.
  std::printf("[chaos] %s: seeds=%zu injections=%llu forks=%llu syscalls=%llu"
              " compact-steps=%llu caps-revoked=%llu\n",
              name, seeds.size(), static_cast<unsigned long long>(total_failures),
              static_cast<unsigned long long>(total_forks),
              static_cast<unsigned long long>(total_syscalls),
              static_cast<unsigned long long>(total_compact_steps),
              static_cast<unsigned long long>(total_caps_revoked));
}

TEST(ChaosSoak, UforkSurvivesSeededStorm) {
  // Only the μFork backend owns a compaction engine, so only its soaks honor
  // UFORK_SOAK_COMPACT (the CI chaos matrix's compaction row).
  SoakSystem("ufork", [](KernelConfig c) { return MakeUforkKernel(c); },
             /*demand_paging=*/false, SoakCompact());
}

TEST(ChaosSoak, MasSurvivesSeededStorm) {
  SoakSystem("mas", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); });
}

TEST(ChaosSoak, VmCloneSurvivesSeededStorm) {
  SoakSystem("vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c, VmCloneParams{}); });
}

// The same storm with demand paging on: every worker's anonymous window and heap touch now
// runs through the lazy-fill fault path, so kLazyFillAlloc (and the rest of the armed sites)
// strike mid-fill. Containment, leak-freedom and per-seed replay identity must all still hold.
TEST(ChaosSoak, UforkSurvivesSeededStormWithDemandPaging) {
  SoakSystem("ufork-demand", [](KernelConfig c) { return MakeUforkKernel(c); },
             /*demand_paging=*/true, SoakCompact());
}

TEST(ChaosSoak, MasSurvivesSeededStormWithDemandPaging) {
  SoakSystem("mas-demand", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); },
             /*demand_paging=*/true);
}

TEST(ChaosSoak, VmCloneSurvivesSeededStormWithDemandPaging) {
  SoakSystem("vmclone-demand",
             [](KernelConfig c) { return MakeVmCloneKernel(c, VmCloneParams{}); },
             /*demand_paging=*/true);
}

}  // namespace
}  // namespace ufork
