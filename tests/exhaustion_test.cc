// Syscall-level exhaustion matrix (DESIGN.md §4.9).
//
// Every resource-acquiring syscall is driven into its failure path with the deterministic
// fault injector and must (a) return the documented errno, (b) leave ZERO observable state
// change — frame counts, descriptor tables, mmap cursors, the process table — and (c) succeed
// when retried after the pressure clears. The whole file runs with check_frame_invariants on,
// so every syscall exit cross-checks frame refcounts against the page tables; a leaked or
// double-freed frame aborts the test at the exact syscall that broke the accounting.
#include <gtest/gtest.h>

#include <string>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

KernelConfig SmallConfig() {
  KernelConfig config;
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

struct System {
  const char* name;
  std::unique_ptr<Kernel> (*make)(KernelConfig config);
};

const System kSystems[] = {
    {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
    {"mas", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); }},
    {"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c, VmCloneParams{}); }},
};

void RunOnAllSystems(GuestFn fn) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    auto pid = kernel->Spawn(MakeGuestEntry(fn), "exhaustion");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- anonymous mmap ----------------------------------------------------------------------------

TEST(Exhaustion, MmapMidAllocationRollsBackCompletely) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    Kernel& k = g.kernel();
    const uint64_t frames0 = k.machine().frames().frames_in_use();
    const uint64_t cursor0 = g.uproc().mmap_cursor;

    // The third of four page allocations fails: the two already-mapped pages must come back.
    k.fault_injector().Arm(FaultSite::kFrameAlloc, FaultPolicy::Nth(3));
    auto failed = co_await g.MmapAnon(4 * kPageSize);
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    k.fault_injector().DisarmAll();

    CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
    CO_ASSERT_EQ(g.uproc().mmap_cursor, cursor0);

    // The identical request over the identical cursor succeeds and the memory works.
    auto mapped = co_await g.MmapAnon(4 * kPageSize);
    CO_ASSERT_OK(mapped);
    CO_ASSERT_OK(g.Store<uint64_t>(*mapped, mapped->base(), 0xC0FFEE));
    auto v = g.Load<uint64_t>(*mapped, mapped->base());
    CO_ASSERT_OK(v);
    CO_ASSERT_EQ(*v, 0xC0FFEEu);
  });
}

// --- pipes -------------------------------------------------------------------------------------

TEST(Exhaustion, PipeReservationFailureLeavesNoDescriptors) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    const auto open0 = g.uproc().fds->OpenCount();
    g.kernel().fault_injector().Arm(FaultSite::kPipeReserve, FaultPolicy::OneShot());
    auto failed = co_await g.Pipe();
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    CO_ASSERT_EQ(g.uproc().fds->OpenCount(), open0);

    // Pressure gone (oneshot disarmed itself): same call succeeds and the pipe carries data.
    auto pipe = co_await g.Pipe();
    CO_ASSERT_OK(pipe);
    auto buf = g.Malloc(32);
    CO_ASSERT_OK(buf);
    auto written = co_await g.Write(pipe->second, *buf, 32);
    CO_ASSERT_OK(written);
    auto read = co_await g.Read(pipe->first, *buf, 32);
    CO_ASSERT_OK(read);
    CO_ASSERT_EQ(*read, 32);
  });
}

TEST(Exhaustion, PipeGrowFailureIsAllOrNothingPerChunk) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto pipe = co_await g.Pipe();
    CO_ASSERT_OK(pipe);
    const int rfd = pipe->first;
    const int wfd = pipe->second;
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);

    // First chunk fails with nothing staged: ENOMEM, zero bytes visible to the reader.
    g.kernel().fault_injector().Arm(FaultSite::kPipeGrow, FaultPolicy::Nth(1));
    auto failed = co_await g.Write(wfd, *buf, 64);
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    g.kernel().fault_injector().DisarmAll();

    auto written = co_await g.Write(wfd, *buf, 64);
    CO_ASSERT_OK(written);
    CO_ASSERT_EQ(*written, 64);
    CO_ASSERT_OK(co_await g.Close(wfd));
    // EOF after exactly the successful write's bytes: the failed write leaked nothing in.
    auto first = co_await g.Read(rfd, *buf, 64);
    CO_ASSERT_OK(first);
    CO_ASSERT_EQ(*first, 64);
    auto eof = co_await g.Read(rfd, *buf, 64);
    CO_ASSERT_OK(eof);
    CO_ASSERT_EQ(*eof, 0);
  });
}

TEST(Exhaustion, PipeGrowMidWriteDeliversShortWriteOfWholeChunks) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto pipe = co_await g.Pipe();
    CO_ASSERT_OK(pipe);
    const int rfd = pipe->first;
    const int wfd = pipe->second;

    auto child = co_await g.Fork([wfd, rfd](Guest& cg) -> SimTask<void> {
      CO_ASSERT_OK(co_await cg.Close(rfd));
      auto big = cg.Malloc(kPipeCapacity + 4096);
      CO_ASSERT_OK(big);
      // Chunk 1 fills the ring (succeeds); chunk 2, attempted once the parent drains, fails:
      // POSIX short write of the whole chunks already committed, never a torn chunk.
      cg.kernel().fault_injector().Arm(FaultSite::kPipeGrow, FaultPolicy::Nth(2));
      auto written = co_await cg.Write(wfd, *big, kPipeCapacity + 4096);
      cg.kernel().fault_injector().DisarmAll();
      CO_ASSERT_OK(written);
      CO_ASSERT_EQ(*written, static_cast<int64_t>(kPipeCapacity));
      CO_ASSERT_OK(co_await cg.Close(wfd));
      co_await cg.Exit(0);
    });
    CO_ASSERT_OK(child);
    CO_ASSERT_OK(co_await g.Close(wfd));

    auto buf = g.Malloc(kPipeCapacity);
    CO_ASSERT_OK(buf);
    uint64_t total = 0;
    for (;;) {
      auto n = co_await g.Read(rfd, *buf, kPipeCapacity);
      CO_ASSERT_OK(n);
      if (*n == 0) {
        break;  // EOF
      }
      total += static_cast<uint64_t>(*n);
    }
    // The reader sees exactly the short-written bytes — never a torn chunk.
    CO_ASSERT_EQ(total, kPipeCapacity);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 0);
  });
}

// --- message queues ----------------------------------------------------------------------------

TEST(Exhaustion, MqCreateFailureLeavesNoQueueBehind) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    g.kernel().fault_injector().Arm(FaultSite::kMqReserve, FaultPolicy::OneShot());
    auto failed = co_await g.MqOpen("/mq/exhausted", /*create=*/true);
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    // No ghost queue was registered under the name.
    auto absent = co_await g.MqOpen("/mq/exhausted", /*create=*/false);
    CO_ASSERT_EQ(absent.code(), Code::kErrNoEnt);

    auto fd = co_await g.MqOpen("/mq/exhausted", /*create=*/true);
    CO_ASSERT_OK(fd);
  });
}

TEST(Exhaustion, MqSendFailureLeavesTheQueueUntouched) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen("/mq/grow", /*create=*/true);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("first");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 5));

    // A 3 KiB message charges three 1 KiB chunks; the second fails, so nothing is enqueued.
    auto big = g.Malloc(3 * 1024);
    CO_ASSERT_OK(big);
    g.kernel().fault_injector().Arm(FaultSite::kMqGrow, FaultPolicy::Nth(2));
    auto failed = co_await g.Write(*fd, *big, 3 * 1024);
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    g.kernel().fault_injector().DisarmAll();

    // The queue still holds exactly the pre-failure message, boundaries intact.
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    auto n = co_await g.Read(*fd, *buf, 64);
    CO_ASSERT_OK(n);
    CO_ASSERT_EQ(*n, 5);
    CO_ASSERT_OK(co_await g.Write(*fd, *big, 3 * 1024));
  });
}

// --- ramdisk VFS -------------------------------------------------------------------------------

TEST(Exhaustion, VfsGrowthFailureLeavesFileUntouched) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/exhausted", kOpenWrite | kOpenRead | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto hello = g.PlaceString("hello");
    CO_ASSERT_OK(hello);
    CO_ASSERT_OK(co_await g.Write(*fd, *hello, 5));

    // 10 KiB of growth is three 4 KiB blocks; the second fails. POSIX disk-full: ENOSPC, and
    // neither the file size nor its contents may have moved.
    auto big = g.Malloc(10 * 1024);
    CO_ASSERT_OK(big);
    g.kernel().fault_injector().Arm(FaultSite::kVfsGrow, FaultPolicy::Nth(2));
    auto failed = co_await g.Write(*fd, *big, 10 * 1024);
    CO_ASSERT_EQ(failed.code(), Code::kErrNoSpc);
    g.kernel().fault_injector().DisarmAll();

    auto size = co_await g.FileSize("/exhausted");
    CO_ASSERT_OK(size);
    CO_ASSERT_EQ(*size, 5u);
    auto sought = co_await g.Seek(*fd, 0, kSeekSet);
    CO_ASSERT_OK(sought);
    auto back = co_await g.Read(*fd, *hello, 5);
    CO_ASSERT_OK(back);
    auto bytes = g.FetchBytes(*hello, 5);
    CO_ASSERT_OK(bytes);
    CO_ASSERT_EQ(std::string(reinterpret_cast<const char*>(bytes->data()), 5), "hello");

    // Disk pressure gone: the same write lands in full.
    auto sought_end = co_await g.Seek(*fd, 0, kSeekEnd);
    CO_ASSERT_OK(sought_end);
    CO_ASSERT_OK(co_await g.Write(*fd, *big, 10 * 1024));
    auto grown = co_await g.FileSize("/exhausted");
    CO_ASSERT_OK(grown);
    CO_ASSERT_EQ(*grown, 5u + 10 * 1024);
  });
}

// --- fork --------------------------------------------------------------------------------------

TEST(Exhaustion, UforkRegionGrantFailureRollsBack) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             Kernel& k = g.kernel();
                             const uint64_t frames0 = k.machine().frames().frames_in_use();
                             const uint64_t regions0 = k.address_space().Stats().region_count;

                             k.fault_injector().Arm(FaultSite::kRegionGrant,
                                                    FaultPolicy::OneShot());
                             auto failed = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                               co_await cg.Exit(0);
                             });
                             CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
                             CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
                             CO_ASSERT_EQ(k.address_space().Stats().region_count, regions0);
                             auto no_child = co_await g.Wait();
                             CO_ASSERT_EQ(no_child.code(), Code::kErrChild);

                             auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                               co_await cg.Exit(0);
                             });
                             CO_ASSERT_OK(child);
                             auto waited = co_await g.Wait();
                             CO_ASSERT_OK(waited);
                             CO_ASSERT_EQ(waited->status, 0);
                           }),
                           "region-oom");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(kernel->stats().forks, 1u);
  EXPECT_EQ(kernel->LivePids().size(), 0u);
}

TEST(Exhaustion, ForkMidCopyInjectionRestoresTheParentExactly) {
  // μFork fails during the proactive eager copies; VM-clone fails during the full image copy.
  // Either way the parent must look exactly as before the fork: same frame count, no ghost
  // child, and — the subtle part — no parent PTE left spuriously demoted to CoW (measured by
  // the parent's write taking no resolvable fault afterwards).
  const System cow_systems[] = {
      {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
      {"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c, VmCloneParams{}); }},
  };
  for (const System& system : cow_systems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                               Kernel& k = g.kernel();
                               auto block = g.Malloc(64);
                               CO_ASSERT_OK(block);
                               CO_ASSERT_OK(g.Store<uint64_t>(*block, block->base(), 7));
                               const uint64_t frames0 = k.machine().frames().frames_in_use();

                               k.fault_injector().Arm(FaultSite::kFrameAlloc,
                                                      FaultPolicy::Nth(2));
                               auto failed = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                                 co_await cg.Exit(0);
                               });
                               CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
                               k.fault_injector().DisarmAll();
                               CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
                               auto no_child = co_await g.Wait();
                               CO_ASSERT_EQ(no_child.code(), Code::kErrChild);

                               // No sharer exists, so this write must not fault.
                               const uint64_t cow0 = k.machine().cow_faults();
                               CO_ASSERT_OK(g.Store<uint64_t>(*block, block->base(), 8));
                               CO_ASSERT_EQ(k.machine().cow_faults(), cow0);

                               auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                                 co_await cg.Exit(0);
                               });
                               CO_ASSERT_OK(child);
                               auto waited = co_await g.Wait();
                               CO_ASSERT_OK(waited);
                             }),
                             "fork-oom");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->stats().forks, 1u);
    EXPECT_EQ(kernel->LivePids().size(), 0u) << "no ghost child after the injected failure";
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- posix_spawn -------------------------------------------------------------------------------

TEST(Exhaustion, SpawnImageMapFailureRollsBack) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    kernel->procs().RegisterProgram("worker", MakeGuestEntry([](Guest& g) -> SimTask<void> {
                              co_await g.Exit(5);
                            }));
    auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                               Kernel& k = g.kernel();
                               const uint64_t frames0 = k.machine().frames().frames_in_use();

                               // Fails ten pages into mapping the fresh image.
                               k.fault_injector().Arm(FaultSite::kFrameAlloc,
                                                      FaultPolicy::Nth(10));
                               auto failed = co_await g.SpawnProgram("worker");
                               CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
                               k.fault_injector().DisarmAll();
                               CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
                               auto no_child = co_await g.Wait();
                               CO_ASSERT_EQ(no_child.code(), Code::kErrChild);

                               auto child = co_await g.SpawnProgram("worker");
                               CO_ASSERT_OK(child);
                               auto waited = co_await g.Wait();
                               CO_ASSERT_OK(waited);
                               CO_ASSERT_EQ(waited->status, 5);
                             }),
                             "spawn-oom");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- crash containment (host CHECK -> guest SIGSEGV) -------------------------------------------

TEST(Exhaustion, UnmappedAccessDeliversSigsegvNotAHostAbort) {
  // A wild access to an unmapped page inside the μprocess's own bounds used to trip a host
  // UF_CHECK in the fault resolvers — one buggy guest took the whole simulated machine down.
  // Now it surfaces as kFaultNotMapped, the guest's trap vector raises SIGSEGV, and the
  // default disposition kills only that μprocess (status 128 + 11); the parent just waits.
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      const uint64_t unmapped =
          cg.base() + cg.layout().mmap_off() + cg.layout().mmap_size() - kPageSize;
      auto load = cg.Load<uint64_t>(cg.ddc(), unmapped);
      CO_ASSERT_TRUE(!load.ok());
      co_await cg.RaiseFault(load.error());
      ADD_FAILURE() << "default SIGSEGV disposition must terminate the μprocess";
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 128 + kSigSegv);
    // Containment: the parent (and the kernel) carry on.
    auto pid = co_await g.GetPid();
    CO_ASSERT_OK(pid);
    auto mapped = co_await g.MmapAnon(kPageSize);
    CO_ASSERT_OK(mapped);
  });
}

TEST(Exhaustion, SigsegvHandlerLetsTheFaultingProcessRecover) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      bool handled = false;
      CO_ASSERT_OK(co_await cg.Sigaction(
          kSigSegv, [&handled](Guest&, int signal) -> SimTask<void> {
            handled = signal == kSigSegv;
            co_return;
          }));
      const uint64_t unmapped =
          cg.base() + cg.layout().mmap_off() + cg.layout().mmap_size() - kPageSize;
      auto load = cg.Load<uint64_t>(cg.ddc(), unmapped);
      CO_ASSERT_TRUE(!load.ok());
      co_await cg.RaiseFault(load.error());
      // The handler consumed the signal; the μprocess continues and exits normally.
      CO_ASSERT_TRUE(handled);
      co_await cg.Exit(33);
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 33);
  });
}

TEST(Exhaustion, CowBreakAllocationFailureIsContainedToTheFaultingProcess) {
  // The CoW/CoPA resolvers allocate frames on demand; under memory pressure that allocation
  // fails MID-ACCESS. The error must reach the faulting guest (which reports it as a fault,
  // dying with SIGSEGV), while the parent's copy of the page stays intact and writable.
  const System cow_systems[] = {
      {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
      {"mas", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); }},
  };
  for (const System& system : cow_systems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                               auto block = g.Malloc(64);
                               CO_ASSERT_OK(block);
                               CO_ASSERT_OK(g.Store<uint64_t>(*block, block->base(), 1));
                               const Capability shared = *block;

                               auto child =
                                   co_await g.Fork([shared](Guest& cg) -> SimTask<void> {
                                     cg.kernel().fault_injector().Arm(
                                         FaultSite::kFrameAlloc, FaultPolicy::AfterBudget(0));
                                     auto store =
                                         cg.Store<uint64_t>(shared, shared.base(), 99);
                                     cg.kernel().fault_injector().DisarmAll();
                                     CO_ASSERT_TRUE(!store.ok());
                                     co_await cg.RaiseFault(store.error());
                                   });
                               CO_ASSERT_OK(child);
                               auto waited = co_await g.Wait();
                               CO_ASSERT_OK(waited);
                               CO_ASSERT_EQ(waited->status, 128 + kSigSegv);

                               // The parent's view survived the child's failed CoW break.
                               auto v = g.Load<uint64_t>(shared, shared.base());
                               CO_ASSERT_OK(v);
                               CO_ASSERT_EQ(*v, 1u);
                               CO_ASSERT_OK(g.Store<uint64_t>(shared, shared.base(), 2));
                             }),
                             "cow-oom");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- fault-around batch allocation (window > 1) ------------------------------------------------

// Fixed 4-page windows so a single CoW store over a fork-shared MmapAnon area drives the
// batched kFrameBatch allocation path deterministically (adaptive growth needs a warm-up
// storm; fixed windows do not).
KernelConfig WindowedConfig() {
  KernelConfig config = SmallConfig();
  config.fault_around.max_window = 4;
  config.fault_around.adaptive = false;
  return config;
}

const System kCowWindowSystems[] = {
    {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
    {"mas", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); }},
};

TEST(Exhaustion, MmapCowWindowBatchFailureDegradesToSinglePage) {
  // The shared-window resolvers allocate the whole fault-around batch up front; if physical
  // memory cannot cover it they must fall back to the single faulting page — the access
  // SUCCEEDS, just without speculation — and the abandoned batch must leak nothing.
  for (const System& system : kCowWindowSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(WindowedConfig());
    auto pid = kernel->Spawn(
        MakeGuestEntry([](Guest& g) -> SimTask<void> {
          auto area = co_await g.MmapAnon(4 * kPageSize);
          CO_ASSERT_OK(area);
          for (uint64_t i = 0; i < 4; ++i) {
            CO_ASSERT_OK(g.Store<uint64_t>(*area, area->base() + i * kPageSize, 0xA0 + i));
          }
          const Capability shared = *area;
          CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, shared));

          auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
            // The GOT hands the child its OWN (relocated) view of the area — writing through
            // the parent's capability would architecturally target the parent's pages.
            auto mine = cg.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_OK(mine);
            Kernel& k = cg.kernel();
            const uint64_t copied0 = k.stats().pages_copied_on_fault;
            // The 4-page batch fails once; the degraded single-page retry succeeds.
            k.fault_injector().Arm(FaultSite::kFrameBatch, FaultPolicy::Nth(1));
            CO_ASSERT_OK(cg.Store<uint64_t>(*mine, mine->base(), 0xB0));
            k.fault_injector().DisarmAll();
            CO_ASSERT_EQ(k.stats().pages_copied_on_fault, copied0 + 1);

            // Pressure gone: the next fault window batches the remaining three pages.
            CO_ASSERT_OK(cg.Store<uint64_t>(*mine, mine->base() + kPageSize, 0xB1));
            CO_ASSERT_EQ(k.stats().pages_copied_on_fault, copied0 + 4);
            for (uint64_t i = 2; i < 4; ++i) {
              auto inherited = cg.Load<uint64_t>(*mine, mine->base() + i * kPageSize);
              CO_ASSERT_OK(inherited);
              CO_ASSERT_EQ(*inherited, 0xA0 + i);
            }
            co_await cg.Exit(0);
          });
          CO_ASSERT_OK(child);
          auto waited = co_await g.Wait();
          CO_ASSERT_OK(waited);
          CO_ASSERT_EQ(waited->status, 0);

          // The parent's view never moved, and its pages are still writable.
          for (uint64_t i = 0; i < 4; ++i) {
            auto v = g.Load<uint64_t>(shared, shared.base() + i * kPageSize);
            CO_ASSERT_OK(v);
            CO_ASSERT_EQ(*v, 0xA0 + i);
          }
          CO_ASSERT_OK(g.Store<uint64_t>(shared, shared.base(), 0xC0));
        }),
        "batch-oom");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

TEST(Exhaustion, MmapCowWindowExhaustionIsContainedToTheFaultingProcess) {
  // Persistent pressure: the batch AND its single-page fallback fail. The error must surface
  // to the faulting guest (SIGSEGV containment), with no frame leaked by either attempt and
  // the parent's copies intact.
  for (const System& system : kCowWindowSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(WindowedConfig());
    auto pid = kernel->Spawn(
        MakeGuestEntry([](Guest& g) -> SimTask<void> {
          auto area = co_await g.MmapAnon(4 * kPageSize);
          CO_ASSERT_OK(area);
          for (uint64_t i = 0; i < 4; ++i) {
            CO_ASSERT_OK(g.Store<uint64_t>(*area, area->base() + i * kPageSize, 0xA0 + i));
          }
          const Capability shared = *area;
          CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, shared));

          auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
            auto mine = cg.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_OK(mine);
            Kernel& k = cg.kernel();
            const uint64_t frames0 = k.machine().frames().frames_in_use();
            k.fault_injector().Arm(FaultSite::kFrameBatch, FaultPolicy::AfterBudget(0));
            auto store = cg.Store<uint64_t>(*mine, mine->base(), 0xB0);
            k.fault_injector().DisarmAll();
            CO_ASSERT_TRUE(!store.ok());
            CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
            co_await cg.RaiseFault(store.error());
            ADD_FAILURE() << "default SIGSEGV disposition must terminate the μprocess";
          });
          CO_ASSERT_OK(child);
          auto waited = co_await g.Wait();
          CO_ASSERT_OK(waited);
          CO_ASSERT_EQ(waited->status, 128 + kSigSegv);

          for (uint64_t i = 0; i < 4; ++i) {
            auto v = g.Load<uint64_t>(shared, shared.base() + i * kPageSize);
            CO_ASSERT_OK(v);
            CO_ASSERT_EQ(*v, 0xA0 + i);
          }
          CO_ASSERT_OK(g.Store<uint64_t>(shared, shared.base(), 0xC0));
        }),
        "batch-contained");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

}  // namespace
}  // namespace ufork
