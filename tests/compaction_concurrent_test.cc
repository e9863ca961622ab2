// Incremental concurrent compaction (DESIGN.md §4.13, ISSUE 9).
//
// The stop-the-world compactor's tests (ufork_test.cc) prove the move mechanics; these prove
// the *concurrent* machinery around them:
//
//   - MutatorStorm: budgeted compaction interleaved with a fork/sbrk/mmap/exit storm, with
//     demand paging on and off. Parked victims slide left as the storm
//     vacates slots below them; their GOT-reachable sentinels, heap breaks and reservation
//     tags survive; guest-visible outcomes match a compaction-free control run.
//   - MidMoveSyscallParksOnBarrier: a μprocess woken while its region is mid-move parks on
//     the service's barrier at syscall reacquire and resumes only after the commit.
//   - MidMoveForwardingResolvesMovedHalf: while a move is in flight, raw accesses to the
//     already-moved half of the source region resolve through the VA forwarder to the
//     destination; after the commit the stale half faults.
//   - ForgedReadOfSweptRangeFaults: a capability planted into a live μprocess's memory whose
//     bounds fall inside a later freed-and-quarantined region is untagged by the revocation
//     sweep; dereference faults and the range becomes reusable.
//   - StopTheWorldRefusesInsideSimulatedThread: the CompactAddressSpace safepoint contract
//     is enforced with a Result error, not silently trusted.
//
// The mid-move tests run hole + victim + observer inside ONE Run() with the fragmentation
// trigger enabled: the hole's exit arms the service, and the observer — a live μprocess the
// planner must skip as busy — polls the in-flight move window and acts mid-move. Spawning a
// fresh observer between Runs would not work: first-fit would hand it exactly the hole the
// victim is meant to move into.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "src/ufork/compaction.h"
#include "src/ufork/revocation.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

KernelConfig TinyConfig() {
  KernelConfig config;
  config.layout.text_size = 32 * kKiB;
  config.layout.rodata_size = 8 * kKiB;
  config.layout.got_size = 4 * kKiB;
  config.layout.data_size = 8 * kKiB;
  config.layout.heap_size = 256 * kKiB;
  config.layout.stack_size = 32 * kKiB;
  config.layout.tls_size = 4 * kKiB;
  config.layout.mmap_size = 64 * kKiB;
  return config;
}

KernelConfig IncrementalConfig(uint64_t budget_pages, Cycles interval, bool trigger = false) {
  KernelConfig config = TinyConfig();
  config.compact_budget_pages = budget_pages;
  config.compact_step_interval = interval;
  config.quarantine_freed_regions = true;
  if (trigger) {
    // One vacated slot below a three-region high-water mark is 1/3 ≈ 0.33 slot
    // fragmentation, so 0.2 arms as soon as the first hole opens.
    config.compact_trigger.enabled = true;
    config.compact_trigger.arm_fragmentation = 0.2;
    config.compact_trigger.clear_fragmentation = 0.05;
  }
  return config;
}

// Parks the caller on a named message queue until a waker posts. The buffer capability held
// across the park may be stale after a move (the safepoint contract): the read's result is
// deliberately ignored, and callers re-derive state through the GOT afterwards.
SimTask<void> ParkOnQueue(Guest& g, const std::string& name) {
  auto fd = co_await g.MqOpen(name, /*create=*/true);
  UF_CHECK(fd.ok());
  auto buf = g.Malloc(16);
  UF_CHECK(buf.ok());
  (void)co_await g.Read(*fd, *buf, 1);
}

GuestFn MakeWaker(std::string queue) {
  GuestFn fn = [queue](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen(queue, /*create=*/true);
    CO_ASSERT_OK(fd);
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    CO_ASSERT_OK(co_await g.Write(*fd, *buf, 1));
  };
  return fn;
}

// A μprocess that vacates its slot after idling long enough for its neighbours to reach
// their parking safepoints — the trigger arms on its exit, and the pass it arms must find
// the victims already quiescent (a pass that skips them as busy disarms for good unless
// later churn re-arms it).
GuestFn MakeHole() {
  return [](Guest& g) -> SimTask<void> {
    g.Compute(10);
    CO_ASSERT_OK(co_await g.Nanosleep(20'000));
  };
}

// A victim that parks at a safepoint with a sentinel reachable through its GOT, verifying
// the sentinel (and implicitly its own relocation) once woken.
GuestFn MakeParkedVictim(std::string queue, bool& ok_after_wake) {
  return [queue, &ok_after_wake](Guest& g) -> SimTask<void> {
    auto block = g.Malloc(64);
    CO_ASSERT_OK(block);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 31337));
    CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *block));
    // The break starts at the static heap top; shrink it so the victim carries a
    // non-default break that must survive relocation.
    CO_ASSERT_OK(co_await g.Sbrk(-static_cast<int64_t>(kPageSize)));
    co_await ParkOnQueue(g, queue);
    auto cap = g.GotLoad(kGotSlotFirstUser);
    CO_ASSERT_OK(cap);
    CO_ASSERT_TRUE(cap->tag());
    CO_ASSERT_TRUE(cap->base() >= g.base() && cap->top() <= g.base() + 408 * kKiB);
    auto v = g.LoadAt<uint64_t>(*cap, 0);
    CO_ASSERT_OK(v);
    ok_after_wake = *v == 31337;
  };
}

// One storm worker: anonymous mmap, heap churn, and a short-lived fork. The child's exit and
// the worker's own exit vacate regions concurrently with the compactor's quanta. Wait is a
// safepoint where the worker itself may be relocated (it is quiescent while blocked), so the
// heap capability crosses it through the GOT, μFork-discipline style.
SimTask<void> StormWorker(Guest& g, int id, bool& done) {
  auto mapped = co_await g.MmapAnon(2 * kPageSize);
  CO_ASSERT_OK(mapped);
  CO_ASSERT_OK(g.Store<uint64_t>(*mapped, mapped->base(), 0x5EED + id));
  CO_ASSERT_OK(co_await g.Sbrk(-static_cast<int64_t>(2 * kPageSize)));
  CO_ASSERT_OK(co_await g.Sbrk(2 * kPageSize));
  auto block = g.Malloc(512);
  CO_ASSERT_OK(block);
  CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, id));
  CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *block));
  auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
    auto cblock = cg.Malloc(128);
    CO_ASSERT_OK(cblock);
    co_await cg.Exit(7);
  });
  CO_ASSERT_OK(child);
  auto reaped = co_await g.Wait();
  CO_ASSERT_OK(reaped);
  CO_ASSERT_EQ(reaped->status, 7);
  auto back_cap = g.GotLoad(kGotSlotFirstUser);
  CO_ASSERT_OK(back_cap);
  auto back = g.LoadAt<uint64_t>(*back_cap, 0);
  CO_ASSERT_OK(back);
  CO_ASSERT_EQ(static_cast<int>(*back), id);
  done = true;
  co_await g.Exit(7);
}

struct StormOutcome {
  bool v1_ok = false;
  bool v2_ok = false;
  bool v3_ok = false;
  bool v4_ok = false;
  std::array<bool, 4> worker_done = {};
  uint64_t v1_base_delta = 0;  // spawn base minus final base (0 = did not move)
  uint64_t v3_base_delta = 0;
  uint64_t v1_heap_off_before = 0;
  uint64_t v1_heap_off_after = 0;
  bool v1_reserve_before = false;
  bool v1_reserve_after = false;
  uint64_t regions_moved = 0;
  uint64_t compact_steps = 0;
  uint64_t pause_cycles_max = 0;
};

StormOutcome RunStorm(bool compacted, bool demand_paging) {
  KernelConfig config = compacted ? IncrementalConfig(/*budget_pages=*/4, /*interval=*/1'500,
                                                      /*trigger=*/true)
                                  : TinyConfig();
  config.demand_paging = demand_paging;
  auto kernel = MakeUforkKernel(config);
  kernel->sched().set_allow_blocked_exit(true);
  StormOutcome out;

  // Phase 1: two holes interleaved with two parked victims. The holes' exits raise slot
  // fragmentation past the arm threshold, so the trigger starts packing the victims left as
  // soon as the quarantined slots are swept — no explicit Kick.
  auto h1 = kernel->Spawn(MakeGuestEntry(MakeHole()), "hole1");
  auto v1 = kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/storm-v1", out.v1_ok)), "V1");
  auto h2 = kernel->Spawn(MakeGuestEntry(MakeHole()), "hole2");
  auto v2 = kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/storm-v2", out.v2_ok)), "V2");
  UF_CHECK(h1.ok() && v1.ok() && h2.ok() && v2.ok());
  const uint64_t v1_spawn_base = kernel->FindUproc(*v1)->base;
  out.v1_reserve_before = kernel->address_space().IsReserveOnly(v1_spawn_base);
  kernel->Run();

  {
    Uproc* victim1 = kernel->FindUproc(*v1);
    UF_CHECK(victim1 != nullptr);
    out.v1_heap_off_before = victim1->heap_break - victim1->base;
  }

  if (compacted) {
    EXPECT_TRUE(kernel->compaction().Kick());
  } else {
    EXPECT_FALSE(kernel->compaction().Kick()) << "budget 0 must leave the service disabled";
  }

  // Phase 2: the storm, plus two more parked victims spawned ABOVE it. Workers fork, exit
  // and vacate slots under V3/V4 while those park; the trigger re-arms on that churn and
  // slides them down between worker slices.
  for (int id = 0; id < 4; ++id) {
    bool* done = &out.worker_done[static_cast<size_t>(id)];
    auto w = kernel->Spawn(MakeGuestEntry([id, done](Guest& g) -> SimTask<void> {
                             co_await StormWorker(g, id, *done);
                           }),
                           "storm-" + std::to_string(id));
    UF_CHECK(w.ok());
  }
  auto v3 = kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/storm-v3", out.v3_ok)), "V3");
  auto v4 = kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/storm-v4", out.v4_ok)), "V4");
  UF_CHECK(v3.ok() && v4.ok());
  // Two long-idling holes above V4. The storm may burn out before V3/V4 reach their parking
  // safepoints (every armed pass until then skips them as busy and disarms); these exits are
  // guaranteed-late churn that re-arms the trigger once the victims are parked.
  for (const Cycles idle : {Cycles{120'000}, Cycles{160'000}}) {
    UF_CHECK(kernel
                 ->Spawn(MakeGuestEntry([idle](Guest& g) -> SimTask<void> {
                           CO_ASSERT_OK(co_await g.Nanosleep(idle));
                         }),
                         "late-hole")
                 .ok());
  }
  const uint64_t v3_spawn_base = kernel->FindUproc(*v3)->base;
  kernel->Run();

  // Sample post-move state while the victims are still parked (records are reaped once they
  // wake and exit in phase 3).
  {
    Uproc* victim1 = kernel->FindUproc(*v1);
    Uproc* victim3 = kernel->FindUproc(*v3);
    UF_CHECK(victim1 != nullptr && victim3 != nullptr);
    out.v1_base_delta = v1_spawn_base - victim1->base;
    out.v3_base_delta = v3_spawn_base - victim3->base;
    out.v1_heap_off_after = victim1->heap_break - victim1->base;
    out.v1_reserve_after = kernel->address_space().IsReserveOnly(victim1->base);
  }
  out.regions_moved = kernel->stats().compact_regions_moved;
  out.compact_steps = kernel->stats().compact_steps;
  out.pause_cycles_max = kernel->stats().pause_cycles_max;

  // Phase 3: wake the victims; they verify their sentinels from relocated state.
  for (const char* queue : {"/mq/storm-v1", "/mq/storm-v2", "/mq/storm-v3", "/mq/storm-v4"}) {
    UF_CHECK(kernel->Spawn(MakeGuestEntry(MakeWaker(queue)), "waker").ok());
  }
  kernel->Run();

  if (compacted) {
    // Post-storm hygiene: drain the quarantine and prove the revocation invariant.
    SweepQuarantineToCompletion(*kernel);
    const auto invariant = CheckRevocationInvariant(*kernel);
    EXPECT_TRUE(invariant.ok()) << (invariant.ok() ? "" : invariant.error().message);
    EXPECT_EQ(kernel->address_space().Stats().quarantined_bytes, 0u);
  }
  return out;
}

TEST(CompactionConcurrent, MutatorStormAcrossPagingModes) {
  for (const bool demand : {false, true}) {
    SCOPED_TRACE(demand ? "demand" : "eager");
    const StormOutcome control = RunStorm(/*compacted=*/false, demand);
    const StormOutcome compacted = RunStorm(/*compacted=*/true, demand);

    // Guest-visible outcomes are compaction-invariant.
    EXPECT_TRUE(control.v1_ok && control.v2_ok && control.v3_ok && control.v4_ok);
    EXPECT_TRUE(compacted.v1_ok && compacted.v2_ok && compacted.v3_ok && compacted.v4_ok);
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(control.worker_done[i]) << "worker " << i;
      EXPECT_TRUE(compacted.worker_done[i]) << "worker " << i;
    }

    // The control run never compacts; the compacted run packed the early victims into the
    // phase-1 holes and slid V3 into storm-vacated slots, over multiple bounded quanta,
    // preserving break offsets and reservation state.
    EXPECT_EQ(control.regions_moved, 0u);
    EXPECT_EQ(control.v1_base_delta, 0u);
    EXPECT_GE(compacted.regions_moved, 3u);
    EXPECT_GT(compacted.v1_base_delta, 0u);
    EXPECT_GT(compacted.v3_base_delta, 0u) << "V3 must ride down into storm-vacated slots";
    EXPECT_GE(compacted.compact_steps, 10u);
    EXPECT_GT(compacted.pause_cycles_max, 0u);
    EXPECT_EQ(compacted.v1_heap_off_after, compacted.v1_heap_off_before);
    EXPECT_EQ(compacted.v1_reserve_after, compacted.v1_reserve_before);
    if (demand) {
      EXPECT_TRUE(compacted.v1_reserve_before) << "demand paging spawns reserve-only";
    }
  }
}

TEST(CompactionConcurrent, MidMoveSyscallParksOnBarrier) {
  auto kernel = MakeUforkKernel(
      IncrementalConfig(/*budget_pages=*/2, /*interval=*/3'000, /*trigger=*/true));
  kernel->sched().set_allow_blocked_exit(true);
  Kernel* k = kernel.get();
  bool victim_ok = false;
  bool woke_mid_move = false;

  // The observer stays live (the planner must skip it as busy) and wakes the victim the
  // moment its move is in flight: the reacquire path must park on the barrier, not race the
  // mover. Spawned first so it sits below the hole and never blocks the victim's target.
  uint64_t victim_base = 0;
  auto observer = kernel->Spawn(
      MakeGuestEntry([k, &victim_base, &woke_mid_move](Guest& g) -> SimTask<void> {
        for (int i = 0; i < 100'000; ++i) {
          const auto window = k->compaction().CurrentMove();
          if (window.has_value() && window->from_base == victim_base &&
              window->moved_pages >= 2) {
            woke_mid_move = true;
            break;
          }
          CO_ASSERT_OK(co_await g.Nanosleep(200));
        }
        CO_ASSERT_TRUE(woke_mid_move);
        auto fd = co_await g.MqOpen("/mq/barrier", /*create=*/true);
        CO_ASSERT_OK(fd);
        auto buf = g.Malloc(16);
        CO_ASSERT_OK(buf);
        CO_ASSERT_OK(co_await g.Write(*fd, *buf, 1));
      }),
      "observer");
  auto hole = kernel->Spawn(MakeGuestEntry(MakeHole()), "hole");
  auto victim =
      kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/barrier", victim_ok)), "victim");
  ASSERT_TRUE(observer.ok() && hole.ok() && victim.ok());
  victim_base = kernel->FindUproc(*victim)->base;

  // One Run: the hole exits, the trigger arms, the sweep frees the hole's slot, the victim
  // (parked by then) starts moving into it, and the observer fires mid-move.
  kernel->Run();

  EXPECT_TRUE(woke_mid_move);
  EXPECT_TRUE(victim_ok) << "victim must resume from relocated state after the barrier";
  EXPECT_GE(kernel->stats().compact_regions_moved, 1u);
  EXPECT_GE(kernel->stats().compact_parked, 1u)
      << "the mid-move wakeup must have parked on the compaction barrier";
}

TEST(CompactionConcurrent, MidMoveForwardingResolvesMovedHalf) {
  auto kernel = MakeUforkKernel(
      IncrementalConfig(/*budget_pages=*/1, /*interval=*/2'000, /*trigger=*/true));
  kernel->sched().set_allow_blocked_exit(true);
  Kernel* k = kernel.get();
  bool victim_ok = false;
  bool forwarded_matches = false;
  bool stale_half_faults_after_commit = false;
  uint64_t victim_base = 0;
  uint64_t probe_va = 0;
  uint64_t probe_index = 0;

  auto observer = kernel->Spawn(
      MakeGuestEntry([k, &victim_base, &probe_va, &probe_index, &forwarded_matches,
                      &stale_half_faults_after_commit](Guest& g) -> SimTask<void> {
        // Wait until the probe page is inside the moved prefix but the move is still live.
        std::optional<RelocationWindow> window;
        for (int i = 0; i < 100'000; ++i) {
          window = k->compaction().CurrentMove();
          if (window.has_value() && window->from_base == victim_base &&
              window->moved_pages > probe_index) {
            break;
          }
          window.reset();
          CO_ASSERT_OK(co_await g.Nanosleep(150));
        }
        CO_ASSERT_TRUE(window.has_value());
        // No suspension between the poll and the reads: the window cannot advance under us.
        const Capability stale = Capability::Root(probe_va, kPageSize, kPermAllData);
        std::array<std::byte, 64> via_old{};
        auto old_read = g.ReadBytes(stale, probe_va, via_old);
        CO_ASSERT_OK(old_read);
        const uint64_t dst_va = window->to_base + (probe_va - victim_base);
        const Capability fresh = Capability::Root(dst_va, kPageSize, kPermAllData);
        std::array<std::byte, 64> via_new{};
        auto new_read = g.ReadBytes(fresh, dst_va, via_new);
        CO_ASSERT_OK(new_read);
        const bool nonzero = std::any_of(via_new.begin(), via_new.end(),
                                         [](std::byte b) { return b != std::byte{0}; });
        forwarded_matches = nonzero && via_old == via_new;
        // After the commit the stale half must be unmapped: no forwarding, no silent reuse.
        for (int i = 0; i < 100'000 && k->compaction().CurrentMove().has_value(); ++i) {
          CO_ASSERT_OK(co_await g.Nanosleep(150));
        }
        auto stale_read = g.ReadBytes(stale, probe_va, via_old);
        stale_half_faults_after_commit =
            !stale_read.ok() && stale_read.code() == Code::kFaultNotMapped;
        // Only now wake the victim, so the reads above raced nothing but the mover.
        auto fd = co_await g.MqOpen("/mq/forward", /*create=*/true);
        CO_ASSERT_OK(fd);
        auto buf = g.Malloc(16);
        CO_ASSERT_OK(buf);
        CO_ASSERT_OK(co_await g.Write(*fd, *buf, 1));
      }),
      "observer");
  auto hole = kernel->Spawn(MakeGuestEntry(MakeHole()), "hole");
  auto victim =
      kernel->Spawn(MakeGuestEntry(MakeParkedVictim("/mq/forward", victim_ok)), "victim");
  ASSERT_TRUE(observer.ok() && hole.ok() && victim.ok());

  Uproc* v = kernel->FindUproc(*victim);
  victim_base = v->base;
  // The victim's first heap page holds allocator metadata and the sentinel block — live,
  // nonzero content to compare across the two halves of a mid-flight move. Its position in
  // the VA-ascending mapped-page list gives the moved_pages watermark to wait for (the page
  // the victim's Sbrk shrink later unmaps sits above it, so the index is stable).
  probe_va = victim_base + kernel->layout().heap_off();
  std::vector<uint64_t> mapped_vas;
  v->page_table->ForEachMapped(v->base, v->base + v->size,
                               [&](uint64_t va, const Pte&) { mapped_vas.push_back(va); });
  const auto probe_it = std::find(mapped_vas.begin(), mapped_vas.end(), probe_va);
  ASSERT_NE(probe_it, mapped_vas.end());
  probe_index = static_cast<uint64_t>(probe_it - mapped_vas.begin());

  kernel->Run();

  EXPECT_TRUE(forwarded_matches)
      << "a moved-half access must resolve through the forwarder to identical bytes";
  EXPECT_TRUE(stale_half_faults_after_commit);
  EXPECT_GE(kernel->stats().compact_regions_moved, 1u);
  EXPECT_TRUE(victim_ok);
}

TEST(CompactionConcurrent, ForgedReadOfSweptRangeFaults) {
  auto kernel = MakeUforkKernel(IncrementalConfig(/*budget_pages=*/4, /*interval=*/2'000));
  kernel->sched().set_allow_blocked_exit(true);

  // L lives through the whole test; D's region will be freed and quarantined.
  Code observed_deref = Code::kOk;
  bool l_checked = false;
  auto l = kernel->Spawn(
      MakeGuestEntry([&observed_deref, &l_checked](Guest& g) -> SimTask<void> {
        co_await ParkOnQueue(g, "/mq/live");
        // The host planted a capability into GOT slot 4 whose bounds lie inside D's
        // now-swept region: it must come back untagged, and dereference must fault.
        auto cap = g.GotLoad(kGotSlotFirstUser + 2);
        CO_ASSERT_OK(cap);
        CO_ASSERT_TRUE(!cap->tag());
        auto v = g.LoadAt<uint64_t>(*cap, 0);
        CO_ASSERT_TRUE(!v.ok());
        observed_deref = v.code();
        l_checked = true;
      }),
      "L");
  auto d = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                           co_await ParkOnQueue(g, "/mq/doomed");
                           co_await g.Exit(0);
                         }),
                         "D");
  ASSERT_TRUE(l.ok() && d.ok());
  kernel->Run();

  Uproc* live = kernel->FindUproc(*l);
  Uproc* doomed = kernel->FindUproc(*d);
  ASSERT_TRUE(live != nullptr && doomed != nullptr);
  const uint64_t doomed_base = doomed->base;
  const uint64_t doomed_size = doomed->size;

  // Plant a forged capability into L's GOT frame, bounds inside D's (still live) region.
  const uint64_t got_va = live->base + kernel->layout().got_off();
  Pte* got_pte = live->page_table->LookupMutable(got_va);
  ASSERT_NE(got_pte, nullptr);
  ASSERT_TRUE(PtePopulated(*got_pte));
  Frame& got_frame = kernel->machine().frames().WritableFrame(got_pte->frame);
  const uint64_t slot_off = static_cast<uint64_t>(kGotSlotFirstUser + 2) * kCapSize;
  got_frame.StoreCap(slot_off, Capability::Root(doomed_base + 0x100, 64, kPermAllData));
  ASSERT_TRUE(got_frame.LoadCap(slot_off).tag());

  // D exits: its region is quarantined, region churn starts the service, and the budgeted
  // sweep walks live tagged frames — including L's GOT — revoking the forged capability.
  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/doomed")), "wake-d").ok());
  kernel->Run();

  EXPECT_GE(kernel->stats().caps_revoked, 1u);
  EXPECT_FALSE(got_frame.LoadCap(slot_off).tag())
      << "the sweep must untag capabilities bounded inside the quarantined range";
  EXPECT_EQ(kernel->address_space().Stats().quarantined_bytes, 0u)
      << "the service must have drained the quarantine before going idle";
  EXPECT_TRUE(CheckRevocationInvariant(*kernel).ok());

  // The swept range is reusable.
  auto regrant = kernel->address_space().AllocateRegionAt(doomed_base, doomed_size);
  EXPECT_TRUE(regrant.ok());
  if (regrant.ok()) {
    kernel->address_space().FreeRegion(doomed_base);
  }

  // L wakes and proves the guest-visible half: untagged load, faulting dereference.
  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/live")), "wake-l").ok());
  kernel->Run();
  EXPECT_TRUE(l_checked);
  EXPECT_EQ(observed_deref, Code::kFaultTag);
}

TEST(CompactionConcurrent, StopTheWorldRefusesInsideSimulatedThread) {
  auto kernel = MakeUforkKernel(TinyConfig());
  Kernel* k = kernel.get();
  Code observed = Code::kOk;
  bool ran = false;
  auto pid = kernel->Spawn(MakeGuestEntry([k, &observed, &ran](Guest& g) -> SimTask<void> {
                             auto res = CompactAddressSpace(*k);
                             observed = res.ok() ? Code::kOk : res.code();
                             ran = true;
                             g.Compute(1);
                             co_return;
                           }),
                           "in-thread");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(observed, Code::kErrAgain)
      << "the safepoint contract must be enforced, not assumed";

  // From outside any simulated thread the same call is the supported stop-the-world path.
  EXPECT_TRUE(CompactAddressSpace(*kernel).ok());
}

}  // namespace
}  // namespace ufork
