// Tests for the discrete-event scheduler: virtual-time accounting, multi-core parallelism,
// pinning, wait queues, locks, determinism, and kill semantics.
#include "src/sched/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/sched/sync.h"

namespace ufork {
namespace {

TEST(Scheduler, SingleThreadChargesTime) {
  Scheduler sched(1);
  Cycles observed = 0;
  sched.Spawn(
      [](Scheduler& s, Cycles* out) -> SimTask<void> {
        s.Charge(100);
        *out = s.Now();
        co_return;
      }(sched, &observed),
      "t");
  sched.Run();
  EXPECT_EQ(observed, 100u);
  EXPECT_EQ(sched.CompletionTime(), 100u);
}

TEST(Scheduler, SleepAdvancesVirtualTime) {
  Scheduler sched(1);
  Cycles observed = 0;
  sched.Spawn(
      [](Scheduler& s, Cycles* out) -> SimTask<void> {
        s.Charge(10);
        co_await s.Sleep(1000);
        s.Charge(5);
        *out = s.Now();
      }(sched, &observed),
      "sleeper");
  sched.Run();
  EXPECT_EQ(observed, 1015u);
}

TEST(Scheduler, TwoThreadsOneCoreSerialize) {
  Scheduler sched(1);
  std::vector<std::pair<int, Cycles>> log;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(
        [](Scheduler& s, int id, std::vector<std::pair<int, Cycles>>* l) -> SimTask<void> {
          s.Charge(100);
          l->emplace_back(id, s.Now());
          co_return;
        }(sched, i, &log),
        "t" + std::to_string(i));
  }
  sched.Run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], std::make_pair(0, Cycles{100}));
  EXPECT_EQ(log[1], std::make_pair(1, Cycles{200}));  // serialized on the single core
}

TEST(Scheduler, TwoThreadsTwoCoresRunInParallel) {
  Scheduler sched(2);
  std::vector<Cycles> ends;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(
        [](Scheduler& s, std::vector<Cycles>* e) -> SimTask<void> {
          s.Charge(100);
          e->push_back(s.Now());
          co_return;
        }(sched, &ends),
        "t" + std::to_string(i));
  }
  sched.Run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 100u);
  EXPECT_EQ(ends[1], 100u);  // parallel in virtual time
  EXPECT_EQ(sched.CompletionTime(), 100u);
}

TEST(Scheduler, PinnedThreadsShareTheirCore) {
  Scheduler sched(2);
  std::vector<Cycles> ends;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(
        [](Scheduler& s, std::vector<Cycles>* e) -> SimTask<void> {
          s.Charge(100);
          e->push_back(s.Now());
          co_return;
        }(sched, &ends),
        "pinned" + std::to_string(i), /*pinned_core=*/0);
  }
  sched.Run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[1], 200u);  // both pinned to core 0: serialized despite 2 cores
}

TEST(Scheduler, NestedTaskReturnsValue) {
  Scheduler sched(1);
  int result = 0;
  auto child = [](Scheduler& s) -> SimTask<int> {
    s.Charge(7);
    co_return 41;
  };
  sched.Spawn(
      [](Scheduler& s, decltype(child) c, int* out) -> SimTask<void> {
        const int v = co_await c(s);
        *out = v + 1;
      }(sched, child, &result),
      "parent");
  sched.Run();
  EXPECT_EQ(result, 42);
}

TEST(Scheduler, NestedTaskBlockingUnwindsToScheduler) {
  Scheduler sched(1);
  WaitQueue queue(sched);
  std::vector<int> order;
  auto blocking_child = [](Scheduler&, WaitQueue& q, std::vector<int>* o) -> SimTask<int> {
    o->push_back(1);
    co_await q.Wait();  // suspends the whole coroutine stack
    o->push_back(3);
    co_return 9;
  };
  sched.Spawn(
      [](Scheduler& s, WaitQueue& q, decltype(blocking_child) c,
         std::vector<int>* o) -> SimTask<void> {
        const int v = co_await c(s, q, o);
        o->push_back(v);
      }(sched, queue, blocking_child, &order),
      "blocker");
  sched.Spawn(
      [](Scheduler& s, WaitQueue& q, std::vector<int>* o) -> SimTask<void> {
        s.Charge(500);
        o->push_back(2);
        q.Wake();
        co_return;
      }(sched, queue, &order),
      "waker");
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 9}));
}

TEST(Scheduler, WakeStampsWakerTime) {
  Scheduler sched(2);
  WaitQueue queue(sched);
  Cycles resumed_at = 0;
  sched.Spawn(
      [](Scheduler& s, WaitQueue& q, Cycles* out) -> SimTask<void> {
        co_await q.Wait();  // blocks at t=0
        *out = s.Now();
      }(sched, queue, &resumed_at),
      "waiter");
  sched.Spawn(
      [](Scheduler& s, WaitQueue& q) -> SimTask<void> {
        s.Charge(2500);
        q.Wake();
        co_return;
      }(sched, queue),
      "waker");
  sched.Run();
  EXPECT_EQ(resumed_at, 2500u);  // not earlier than the waker's clock
}

TEST(Scheduler, ContextSwitchHookCharged) {
  Scheduler sched(1);
  sched.set_context_switch_hook([](SimThread*, SimThread*) -> Cycles { return 1000; });
  std::vector<Cycles> ends;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(
        [](Scheduler& s, std::vector<Cycles>* e) -> SimTask<void> {
          s.Charge(10);
          e->push_back(s.Now());
          co_return;
        }(sched, &ends),
        "t" + std::to_string(i));
  }
  sched.Run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 1010u);           // switch from idle
  EXPECT_EQ(ends[1], 1010u + 1010u);   // second switch + work
  EXPECT_EQ(sched.context_switches(), 2u);
}

TEST(Scheduler, YieldInterleavesEqualThreads) {
  Scheduler sched(1);
  std::vector<int> order;
  for (int i = 0; i < 2; ++i) {
    sched.Spawn(
        [](Scheduler& s, int id, std::vector<int>* o) -> SimTask<void> {
          for (int k = 0; k < 3; ++k) {
            s.Charge(10);
            o->push_back(id);
            co_await s.Yield();
          }
        }(sched, i, &order),
        "y" + std::to_string(i));
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1, 0, 1}));
}

TEST(Scheduler, SpawnFromThreadStartsAtSpawnersTime) {
  Scheduler sched(2);
  Cycles child_start = 0;
  sched.Spawn(
      [](Scheduler& s, Cycles* out) -> SimTask<void> {
        s.Charge(300);
        s.Spawn(
            [](Scheduler& s2, Cycles* o2) -> SimTask<void> {
              *o2 = s2.Now();
              co_return;
            }(s, out),
            "child");
        s.Charge(50);
        co_return;
      }(sched, &child_start),
      "parent");
  sched.Run();
  EXPECT_EQ(child_start, 300u);
}

TEST(Scheduler, KillRemovesReadyThread) {
  Scheduler sched(1);
  bool ran = false;
  ThreadId victim = sched.Spawn(
      [](bool* r) -> SimTask<void> {
        *r = true;
        co_return;
      }(&ran),
      "victim");
  sched.Kill(victim);
  sched.Run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(sched.IsAlive(victim));
}

TEST(Scheduler, KillBlockedThreadSkippedByWake) {
  Scheduler sched(1);
  WaitQueue queue(sched);
  bool resumed = false;
  ThreadId victim = sched.Spawn(
      [](WaitQueue& q, bool* r) -> SimTask<void> {
        co_await q.Wait();
        *r = true;
      }(queue, &resumed),
      "victim");
  sched.Spawn(
      [](Scheduler& s, WaitQueue& q, ThreadId v) -> SimTask<void> {
        s.Charge(10);
        s.Kill(v);
        q.Wake();
        co_return;
      }(sched, queue, victim),
      "killer");
  sched.Run();
  EXPECT_FALSE(resumed);
}

TEST(VirtualLock, UncontendedAcquireDoesNotSuspend) {
  Scheduler sched(1);
  VirtualLock lock(sched);
  bool done = false;
  sched.Spawn(
      [](Scheduler& s, VirtualLock& l, bool* d) -> SimTask<void> {
        co_await l.Acquire();
        s.Charge(10);
        l.Release();
        *d = true;
      }(sched, lock, &done),
      "t");
  sched.Run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(lock.held());
}

TEST(VirtualLock, ContendedHandoffIsFifoAndTimed) {
  Scheduler sched(3);
  VirtualLock lock(sched);
  std::vector<std::pair<int, Cycles>> critical;
  for (int i = 0; i < 3; ++i) {
    sched.Spawn(
        [](Scheduler& s, VirtualLock& l, int id,
           std::vector<std::pair<int, Cycles>>* log) -> SimTask<void> {
          co_await l.Acquire();
          s.Charge(100);
          log->emplace_back(id, s.Now());
          l.Release();
        }(sched, lock, i, &critical),
        "t" + std::to_string(i));
  }
  sched.Run();
  ASSERT_EQ(critical.size(), 3u);
  // FIFO handoff; each critical section starts after the previous one released.
  EXPECT_EQ(critical[0].first, 0);
  EXPECT_EQ(critical[1].first, 1);
  EXPECT_EQ(critical[2].first, 2);
  EXPECT_EQ(critical[0].second, 100u);
  EXPECT_EQ(critical[1].second, 200u);
  EXPECT_EQ(critical[2].second, 300u);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto run_once = []() {
    Scheduler sched(3);
    std::vector<int> order;
    WaitQueue queue(sched);
    for (int i = 0; i < 5; ++i) {
      sched.Spawn(
          [](Scheduler& s, int id, std::vector<int>* o) -> SimTask<void> {
            s.Charge(static_cast<Cycles>(37 * (id + 1)));
            co_await s.Yield();
            s.Charge(11);
            o->push_back(id);
          }(sched, i, &order),
          "t" + std::to_string(i));
    }
    sched.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- Dispatch-order pin ---------------------------------------------------------------------
//
// Seeded random programs over many threads with equal ready times, pinned and unpinned, mixing
// Charge / Sleep / Yield / wait-queue block and wake / Kill of ready and blocked threads. Every
// context switch (prev, next) and every resume (tid, Now()) is folded into an FNV-1a hash, so
// the pinned hashes fix the scheduler's exact choice of thread, core and start time under the
// dispatch order of DESIGN.md §4.1. A host-only change to dispatch must leave them unchanged.

struct DispatchLog {
  uint64_t hash = 0xcbf29ce484222325ULL;
  uint64_t ready_kills = 0;
  uint64_t blocked_kills = 0;

  void Mix(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (x >> (8 * i)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
};

constexpr int kProgramThreads = 72;
constexpr int kProgramSteps = 24;

SimTask<void> RandomProgram(Scheduler& s, std::vector<std::unique_ptr<WaitQueue>>* queues,
                            uint64_t seed, ThreadId self, DispatchLog* log) {
  Rng rng(seed * 1'000'003 + self);
  auto resumed = [&] {
    log->Mix(self);
    log->Mix(s.Now());
  };
  resumed();
  for (int step = 0; step < kProgramSteps; ++step) {
    const uint64_t op = rng.NextBelow(100);
    WaitQueue& queue = *(*queues)[rng.NextBelow(queues->size())];
    if (op < 30) {
      s.Charge(10 * rng.NextBelow(4));  // coarse amounts keep start times colliding
    } else if (op < 45) {
      // Mostly short sleeps; the long ones let cores go idle, so which idle core a thread
      // takes matters.
      co_await s.Sleep(rng.NextBelow(4) == 0 ? 500 * rng.NextBelow(8) : 10 * rng.NextBelow(5));
      resumed();
    } else if (op < 60) {
      co_await s.Yield();
      resumed();
    } else if (op < 76) {
      co_await queue.Wait();
      resumed();
    } else if (op < 96) {
      if (rng.NextBelow(4) == 0) {
        queue.WakeAll();
      } else {
        queue.Wake();
      }
    } else {
      const ThreadId victim = rng.NextBelow(kProgramThreads);
      if (victim != self) {
        if (s.IsBlocked(victim)) {
          ++log->blocked_kills;
        } else if (s.IsAlive(victim)) {
          ++log->ready_kills;  // the caller is the only running thread
        }
        log->Mix(victim);
        s.Kill(victim);
      }
    }
  }
}

uint64_t RunRandomProgram(int cores, uint64_t seed, DispatchLog* log) {
  Scheduler sched(cores);
  sched.set_allow_blocked_exit(true);  // a program may end parked on a queue nobody wakes
  sched.set_context_switch_hook([log](SimThread* prev, SimThread* next) -> Cycles {
    log->Mix(prev != nullptr ? prev->tid() : kInvalidThread);
    log->Mix(next->tid());
    return 100 + 25 * (next->tid() % 3);
  });
  std::vector<std::unique_ptr<WaitQueue>> queues;
  for (int q = 0; q < 4; ++q) {
    queues.push_back(std::make_unique<WaitQueue>(sched));
    queues.back()->set_resume_delay(static_cast<Cycles>(5 * q));
  }
  Rng placement(seed);
  for (ThreadId tid = 0; tid < kProgramThreads; ++tid) {
    const int pinned =
        placement.NextBelow(4) == 0 ? static_cast<int>(placement.NextBelow(cores)) : -1;
    sched.Spawn(RandomProgram(sched, &queues, seed, tid, log), "p" + std::to_string(tid),
                pinned);
  }
  sched.Run();
  log->Mix(sched.CompletionTime());
  log->Mix(sched.context_switches());
  log->Mix(sched.slices_executed());
  return log->hash;
}

TEST(Scheduler, DispatchOrderPinnedOnRandomPrograms) {
  struct Case {
    int cores;
    uint64_t seed;
    uint64_t hash;
  };
  const Case cases[] = {
      {1, 1, 0xe34f4b4e397dcd6eULL}, {1, 2, 0x29a9ba42039235beULL},
      {1, 3, 0x10f387f58ecaac19ULL}, {2, 1, 0xed5d64f4f5c2f851ULL},
      {2, 2, 0x8fde0b70dc69ac26ULL}, {2, 3, 0x6dc2ad54b4825674ULL},
      {4, 1, 0xa0560763edb90e3eULL}, {4, 2, 0x77f865c8081ecc5bULL},
      {4, 3, 0x3e7188201c145d23ULL},
  };
  for (const Case& c : cases) {
    DispatchLog log;
    const uint64_t hash = RunRandomProgram(c.cores, c.seed, &log);
    EXPECT_EQ(hash, c.hash) << "cores=" << c.cores << " seed=" << c.seed;
    EXPECT_GT(log.ready_kills, 0u) << "cores=" << c.cores << " seed=" << c.seed;
    EXPECT_GT(log.blocked_kills, 0u) << "cores=" << c.cores << " seed=" << c.seed;
  }
}

// --- Herd dispatch pin ----------------------------------------------------------------------
//
// fork_fleet's kernel-lock retry herd in miniature: 64 roots on 4 cores (about a quarter
// pinned) share one VirtualLock. Each root's slice takes and releases it 1-4 times, so the
// lock's release time runs ahead of every other thread, and those sleep until it and retry.
// Most steps then fork as the kernel does: spawn a child inside the lock, block until the
// child wakes it from inside the lock and exits. The sleepers then come back in key order.
// Seeded sleeps and yields push out of key order, and roots kill other ready threads. Every
// lock acquisition (tid, Now()) and every context switch is folded into the hash, which fixes
// the dispatch order of DESIGN.md §4.1 on the ready runs' in-order path and on their heap
// fallback.

constexpr int kHerdRoots = 64;
constexpr int kHerdSteps = 16;

struct HerdLog : DispatchLog {
  uint64_t acquisitions = 0;
};

SimTask<void> HerdAcquire(Scheduler& s, VirtualLock& lock, HerdLog* log) {
  co_await lock.Acquire();
  ++log->acquisitions;
  log->Mix(s.Current().tid());
  log->Mix(s.Now());
}

SimTask<void> HerdChild(Scheduler& s, VirtualLock& lock, WaitQueue* parent, HerdLog* log) {
  co_await HerdAcquire(s, lock, log);
  s.Charge(500);
  parent->Wake();
  s.Charge(1500);
  lock.Release();
}

SimTask<void> HerdRoot(Scheduler& s, VirtualLock& lock, WaitQueue* children, uint64_t seed,
                       ThreadId self, HerdLog* log) {
  Rng rng(seed * 1'000'003 + self);
  for (int step = 0; step < kHerdSteps; ++step) {
    const uint64_t takes = 1 + rng.NextBelow(4);
    for (uint64_t i = 0; i < takes; ++i) {
      co_await HerdAcquire(s, lock, log);
      s.Charge(500 * (1 + rng.NextBelow(8)));
      lock.Release();
      s.Charge(100 * rng.NextBelow(3));
    }
    const uint64_t op = rng.NextBelow(100);
    if (op < 70) {
      co_await HerdAcquire(s, lock, log);
      s.Charge(1000);
      s.Spawn(HerdChild(s, lock, children, log), "child");
      s.Charge(1000);
      lock.Release();
      co_await children->Wait();
    } else if (op < 80) {
      co_await s.Sleep(100 * rng.NextBelow(40));
    } else if (op < 90) {
      co_await s.Yield();
    } else {
      const ThreadId victim = rng.NextBelow(kHerdRoots);
      if (victim != self && s.IsAlive(victim) && !s.IsBlocked(victim)) {
        ++log->ready_kills;  // the caller is the only running thread
        log->Mix(victim);
        s.Kill(victim);
      }
    }
  }
}

uint64_t RunHerd(uint64_t seed, HerdLog* log, uint64_t* slices) {
  Scheduler sched(4);
  sched.set_context_switch_hook([log](SimThread* prev, SimThread* next) -> Cycles {
    log->Mix(prev != nullptr ? prev->tid() : kInvalidThread);
    log->Mix(next->tid());
    return 100;
  });
  VirtualLock lock(sched);
  std::vector<std::unique_ptr<WaitQueue>> children;
  Rng placement(seed);
  for (ThreadId tid = 0; tid < kHerdRoots; ++tid) {
    children.push_back(std::make_unique<WaitQueue>(sched));
    children.back()->set_resume_delay(25);
    const int pinned = placement.NextBelow(4) == 0 ? static_cast<int>(placement.NextBelow(4)) : -1;
    sched.Spawn(HerdRoot(sched, lock, children.back().get(), seed, tid, log),
                "root" + std::to_string(tid), pinned);
  }
  sched.Run();
  log->Mix(sched.CompletionTime());
  log->Mix(sched.context_switches());
  log->Mix(sched.slices_executed());
  *slices = sched.slices_executed();
  return log->hash;
}

TEST(VirtualLock, HerdDispatchOrderPinned) {
  struct Case {
    uint64_t seed;
    uint64_t hash;
  };
  const Case cases[] = {
      {1, 0x56684f506b4f5c48ULL},
      {2, 0x56b500ff93091e99ULL},
      {3, 0xe6c72f7c12143e12ULL},
  };
  for (const Case& c : cases) {
    HerdLog log;
    uint64_t slices = 0;
    const uint64_t hash = RunHerd(c.seed, &log, &slices);
    EXPECT_EQ(hash, c.hash) << "seed=" << c.seed;
    // The herd forms: most slices are sleep-and-retry wakeups, not acquisitions.
    EXPECT_GT(slices, 10 * log.acquisitions) << "seed=" << c.seed;
    EXPECT_GT(log.ready_kills, 0u) << "seed=" << c.seed;
  }
}

}  // namespace
}  // namespace ufork
