// Demand paging + unified VFS page cache (DESIGN.md §4.12), across all three systems.
//
// The contracts under test:
//   - Spawn under KernelConfig::demand_paging reserves heap/stack/TLS as frame-less
//     kPteNotPresent PTEs; the first touch demand-fills a zeroed window.
//   - The lowest stack page is a guard gap: touching it is an unresolvable fault → SIGSEGV
//     that kills only the faulting μprocess.
//   - A failed demand fill (FaultSite::kLazyFillAlloc / kPageCacheFill) is all-or-nothing:
//     the window's PTEs stay unpopulated, no frame leaks, and a retry after disarm succeeds —
//     there is no half-filled window to corrupt later faults.
//   - sbrk shrink releases memory (frames eagerly, reservations lazily) and regrowth is
//     reservation-backed under demand paging.
//   - MmapFile shares clean file pages through the page cache (one frame per file page,
//     however many mappers) and breaks to a private copy on the first write.
#include <gtest/gtest.h>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

KernelConfig SmallConfig(bool demand) {
  KernelConfig config;
  config.layout.text_size = 32 * kKiB;
  config.layout.rodata_size = 8 * kKiB;
  config.layout.got_size = 4 * kKiB;
  config.layout.data_size = 8 * kKiB;
  config.layout.heap_size = 256 * kKiB;
  config.layout.stack_size = 32 * kKiB;
  config.layout.tls_size = 4 * kKiB;
  config.layout.mmap_size = 64 * kKiB;
  config.demand_paging = demand;
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

void RunOnAllSystems(bool demand, GuestFn fn) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig(demand));
    auto pid = kernel->Spawn(MakeGuestEntry(fn), "demand-paging");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    // Whatever the guest did — fills, failed fills, CoW breaks, cache evictions — the
    // frame-accounting invariant must hold at quiesce.
    ASSERT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- the tentpole: reservations at spawn, zero-filled windows on first touch -----------------

TEST(DemandPaging, SpawnReservesAndFirstTouchZeroFills) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    PageTable& pt = *g.uproc().page_table;
    // Heap, stack and TLS were mapped as frame-less reservations.
    CO_ASSERT_TRUE(pt.not_present_pages() > 0);
    const uint64_t resident0 = pt.resident_pages();
    const uint64_t reserved0 = pt.not_present_pages();
    const uint64_t filled0 = g.kernel().stats().pages_demand_filled;

    // An untouched heap-top page: reads as zero (fresh frame), then round-trips a store.
    const uint64_t va =
        g.base() + g.layout().heap_off() + g.layout().heap_size() - kPageSize;
    auto zero = g.Load<uint64_t>(g.ddc(), va);
    CO_ASSERT_OK(zero);
    CO_ASSERT_EQ(*zero, 0u);
    CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), va, 0xD15C0u));
    auto back = g.Load<uint64_t>(g.ddc(), va);
    CO_ASSERT_OK(back);
    CO_ASSERT_EQ(*back, 0xD15C0u);

    // The fault populated at least the touched page and billed it as a demand fill.
    CO_ASSERT_TRUE(pt.resident_pages() > resident0);
    CO_ASSERT_TRUE(pt.not_present_pages() < reserved0);
    CO_ASSERT_TRUE(g.kernel().stats().pages_demand_filled > filled0);
    CO_ASSERT_TRUE(g.kernel().machine().demand_faults() > 0);
  });
}

TEST(DemandPaging, DemandImageIsSmallerThanEager) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    uint64_t resident[2] = {0, 0};
    for (int demand = 0; demand < 2; ++demand) {
      uint64_t* slot = &resident[demand];
      auto kernel = system.make(SmallConfig(demand != 0));
      auto pid = kernel->Spawn(MakeGuestEntry([slot](Guest& g) -> SimTask<void> {
                                 *slot = g.kernel().ResidentFrames();
                                 co_return;
                               }),
                               "footprint");
      ASSERT_TRUE(pid.ok());
      kernel->Run();
    }
    // Same program, same layout: the demand image only populated text/rodata/GOT/data plus
    // the pages the C runtime actually touched.
    EXPECT_LT(resident[1], resident[0]);
  }
}

// --- stack growth edges (×3 systems): guard gap, growth to cap, fork inheritance -------------

TEST(DemandPaging, GuardGapTouchDeliversSigsegvAndParentSurvives) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      // The lowest stack page is deliberately unmapped: no PTE, nothing to fill.
      const uint64_t guard = cg.base() + cg.layout().stack_off();
      auto load = cg.Load<uint64_t>(cg.ddc(), guard);
      CO_ASSERT_TRUE(!load.ok());
      co_await cg.RaiseFault(load.error());
      ADD_FAILURE() << "a guard-gap touch must terminate the μprocess";
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 128 + kSigSegv);
    // Containment: the parent's own stack still grows on demand afterwards.
    const uint64_t mine = g.base() + g.layout().stack_off() + 2 * kPageSize;
    CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), mine, 1u));
    auto pid = co_await g.GetPid();
    CO_ASSERT_OK(pid);
  });
}

TEST(DemandPaging, StackGrowsToTheCapAndForkChildInheritsIt) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    const uint64_t stack_pages = g.layout().stack_size() / kPageSize;
    // March down the whole stack segment, page by page, to the guard gap: every page above
    // the guard demand-fills; the segment cap is exactly the reservation extent.
    for (uint64_t page = kStackGuardPages; page < stack_pages; ++page) {
      const uint64_t va = g.base() + g.layout().stack_off() + page * kPageSize + 8;
      CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), va, 0x5AC0u + page));
    }
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      const uint64_t inherited_pages = cg.layout().stack_size() / kPageSize;
      // Populated stack state crossed the fork: every marker reads back at the child's base.
      for (uint64_t page = kStackGuardPages; page < inherited_pages; ++page) {
        const uint64_t va = cg.base() + cg.layout().stack_off() + page * kPageSize + 8;
        auto marker = cg.Load<uint64_t>(cg.ddc(), va);
        CO_ASSERT_OK(marker);
        CO_ASSERT_EQ(*marker, 0x5AC0u + page);
      }
      // Reservations crossed it too: a TLS page the parent never touched zero-fills here.
      const uint64_t tls = cg.base() + cg.layout().tls_off() + 8;
      auto fresh = cg.Load<uint64_t>(cg.ddc(), tls);
      CO_ASSERT_OK(fresh);
      CO_ASSERT_EQ(*fresh, 0u);
      co_await cg.Exit(0);
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 0);
  });
}

// --- sbrk: release on shrink, lazy regrowth ---------------------------------------------------

TEST(DemandPaging, SbrkShrinkDropsReservationsAndRegrowthFillsLazily) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    PageTable& pt = *g.uproc().page_table;
    auto top = co_await g.Sbrk(0);
    CO_ASSERT_OK(top);
    const uint64_t reserved0 = pt.not_present_pages();

    auto shrunk = co_await g.Sbrk(-4 * static_cast<int64_t>(kPageSize));
    CO_ASSERT_OK(shrunk);
    CO_ASSERT_EQ(*shrunk, *top);
    // The dropped heap-top pages were untouched reservations: no frames moved, only PTEs.
    CO_ASSERT_EQ(pt.not_present_pages(), reserved0 - 4);

    auto regrown = co_await g.Sbrk(4 * static_cast<int64_t>(kPageSize));
    CO_ASSERT_OK(regrown);
    CO_ASSERT_EQ(*regrown, *top - 4 * kPageSize);
    auto back_at_top = co_await g.Sbrk(0);
    CO_ASSERT_OK(back_at_top);
    CO_ASSERT_EQ(*back_at_top, *top);
    // Regrowth mapped reservations, not frames; the first touch zero-fills.
    CO_ASSERT_EQ(pt.not_present_pages(), reserved0);
    auto fresh = g.Load<uint64_t>(g.ddc(), *top - kPageSize);
    CO_ASSERT_OK(fresh);
    CO_ASSERT_EQ(*fresh, 0u);
  });
}

TEST(DemandPaging, EagerSbrkShrinkReleasesFramesImmediately) {
  RunOnAllSystems(/*demand=*/false, [](Guest& g) -> SimTask<void> {
    const FrameAllocator& frames = g.kernel().machine().frames();
    auto top = co_await g.Sbrk(0);
    CO_ASSERT_OK(top);
    const uint64_t frames0 = frames.frames_in_use();
    auto shrunk = co_await g.Sbrk(-2 * static_cast<int64_t>(kPageSize));
    CO_ASSERT_OK(shrunk);
    CO_ASSERT_EQ(frames.frames_in_use(), frames0 - 2);
    auto regrown = co_await g.Sbrk(2 * static_cast<int64_t>(kPageSize));
    CO_ASSERT_OK(regrown);
    CO_ASSERT_EQ(frames.frames_in_use(), frames0);
    // Eagerly repopulated: the regrown page is immediately writable and zeroed.
    auto fresh = g.Load<uint64_t>(g.ddc(), *top - kPageSize);
    CO_ASSERT_OK(fresh);
    CO_ASSERT_EQ(*fresh, 0u);
    CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), *top - kPageSize, 7u));
  });
}

// --- rollback: a failed demand fill is invisible (satellite: fault injection) ----------------

TEST(DemandPaging, FailedLazyFillLeavesTheWindowUnpopulated) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    Kernel& k = g.kernel();
    PageTable& pt = *g.uproc().page_table;
    const uint64_t stack_lo = g.base() + g.layout().stack_off();
    const uint64_t va = stack_lo + 2 * kPageSize;  // untouched stack reservation

    const uint64_t frames0 = k.machine().frames().frames_in_use();
    const uint64_t reserved0 = pt.not_present_pages();
    k.fault_injector().Arm(FaultSite::kLazyFillAlloc, FaultPolicy::AfterBudget(0));
    auto store = g.Store<uint64_t>(g.ddc(), va, 0xDEADu);
    k.fault_injector().DisarmAll();
    CO_ASSERT_TRUE(!store.ok());
    CO_ASSERT_EQ(store.code(), Code::kErrNoMem);

    // All-or-nothing: no frame was charged, no PTE in the window was populated — the pages
    // around the fault are exactly as reserved as before the attempt.
    CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
    CO_ASSERT_EQ(pt.not_present_pages(), reserved0);
    for (uint64_t page = kStackGuardPages; page < 5; ++page) {
      auto pte = pt.Lookup(stack_lo + page * kPageSize);
      CO_ASSERT_TRUE(pte.has_value());
      CO_ASSERT_TRUE(!PtePopulated(*pte));
    }

    // And the window is still fillable: the retry succeeds with nothing half-done.
    CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), va, 0xBEEFu));
    auto back = g.Load<uint64_t>(g.ddc(), va);
    CO_ASSERT_OK(back);
    CO_ASSERT_EQ(*back, 0xBEEFu);
  });
}

TEST(DemandPaging, UnhandledFillFailureContainsToSigsegv) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      const uint64_t va = cg.base() + cg.layout().stack_off() + 3 * kPageSize;
      cg.kernel().fault_injector().Arm(FaultSite::kLazyFillAlloc,
                                       FaultPolicy::AfterBudget(0));
      auto store = cg.Store<uint64_t>(cg.ddc(), va, 1u);
      cg.kernel().fault_injector().DisarmAll();
      CO_ASSERT_TRUE(!store.ok());
      co_await cg.RaiseFault(store.error());
      ADD_FAILURE() << "an unhandled fill failure must terminate the μprocess";
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 128 + kSigSegv);
    auto pid = co_await g.GetPid();
    CO_ASSERT_OK(pid);
  });
}

// --- the unified page cache: sharing, CoW breaks, invalidation, fill failure -----------------

TEST(DemandPaging, MmapFileSharesCleanPagesAndWritesGoPrivate) {
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    // Author a two-page file: word 0xF00D on page 0, word 0xBEEF on page 1.
    auto buf = g.Malloc(2 * kPageSize);
    CO_ASSERT_OK(buf);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, 0xF00Du));
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, kPageSize, 0xBEEFu));
    auto fd = co_await g.Open("/shared.bin", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto written = co_await g.Write(*fd, *buf, 2 * kPageSize);
    CO_ASSERT_OK(written);
    CO_ASSERT_EQ(*written, 2 * static_cast<int64_t>(kPageSize));
    CO_ASSERT_OK(co_await g.Close(*fd));

    const PageCache& cache = g.kernel().page_cache();
    const uint64_t fills0 = cache.fills();
    const uint64_t hits0 = cache.hits();

    auto m1 = co_await g.MmapFile("/shared.bin", 2 * kPageSize);
    CO_ASSERT_OK(m1);
    auto m2 = co_await g.MmapFile("/shared.bin", 2 * kPageSize);
    CO_ASSERT_OK(m2);

    auto a0 = g.Load<uint64_t>(*m1, m1->base());
    CO_ASSERT_OK(a0);
    CO_ASSERT_EQ(*a0, 0xF00Du);
    auto a1 = g.Load<uint64_t>(*m1, m1->base() + kPageSize);
    CO_ASSERT_OK(a1);
    CO_ASSERT_EQ(*a1, 0xBEEFu);
    auto b0 = g.Load<uint64_t>(*m2, m2->base());
    CO_ASSERT_OK(b0);
    CO_ASSERT_EQ(*b0, 0xF00Du);
    auto b1 = g.Load<uint64_t>(*m2, m2->base() + kPageSize);
    CO_ASSERT_OK(b1);
    CO_ASSERT_EQ(*b1, 0xBEEFu);

    // One fill per file page however many mappers; the second window only ever hit.
    CO_ASSERT_EQ(cache.fills() - fills0, 2u);
    CO_ASSERT_EQ(cache.hits() - hits0, 2u);
    CO_ASSERT_EQ(cache.resident_pages(), 2u);

    // The first write breaks CoW to a private copy; the other mapper and the file keep the
    // original bytes.
    CO_ASSERT_OK(g.Store<uint64_t>(*m1, m1->base(), 0x1234u));
    auto mine = g.Load<uint64_t>(*m1, m1->base());
    CO_ASSERT_OK(mine);
    CO_ASSERT_EQ(*mine, 0x1234u);
    auto theirs = g.Load<uint64_t>(*m2, m2->base());
    CO_ASSERT_OK(theirs);
    CO_ASSERT_EQ(*theirs, 0xF00Du);
    auto rfd = co_await g.Open("/shared.bin", kOpenRead);
    CO_ASSERT_OK(rfd);
    auto readback = g.Malloc(16);
    CO_ASSERT_OK(readback);
    auto got = co_await g.Read(*rfd, *readback, 8);
    CO_ASSERT_OK(got);
    auto word = g.LoadAt<uint64_t>(*readback);
    CO_ASSERT_OK(word);
    CO_ASSERT_EQ(*word, 0xF00Du);
    CO_ASSERT_OK(co_await g.Close(*rfd));
  });
}

TEST(DemandPaging, VfsWriteEvictsStaleCachePages) {
  auto kernel = MakeUforkKernel(SmallConfig(/*demand=*/true));
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, 0xAAAAu));
    auto fd = co_await g.Open("/config", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto w1 = co_await g.Write(*fd, *buf, 8);
    CO_ASSERT_OK(w1);

    auto m1 = co_await g.MmapFile("/config", kPageSize);
    CO_ASSERT_OK(m1);
    auto v1 = g.Load<uint64_t>(*m1, m1->base());
    CO_ASSERT_OK(v1);
    CO_ASSERT_EQ(*v1, 0xAAAAu);

    // Rewriting the file drops the now-stale cached page...
    const PageCache& cache = g.kernel().page_cache();
    const uint64_t evictions0 = cache.evictions();
    CO_ASSERT_OK(co_await g.Seek(*fd, 0, 0));
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, 0xBBBBu));
    auto w2 = co_await g.Write(*fd, *buf, 8);
    CO_ASSERT_OK(w2);
    CO_ASSERT_TRUE(cache.evictions() > evictions0);
    CO_ASSERT_OK(co_await g.Close(*fd));

    // ...so a fresh mapping re-fills from the new bytes. The existing private mapping keeps
    // whatever it saw (POSIX leaves post-mmap file updates to MAP_PRIVATE unspecified).
    auto m2 = co_await g.MmapFile("/config", kPageSize);
    CO_ASSERT_OK(m2);
    auto v2 = g.Load<uint64_t>(*m2, m2->base());
    CO_ASSERT_OK(v2);
    CO_ASSERT_EQ(*v2, 0xBBBBu);
  }),
                           "evict");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  ASSERT_TRUE(kernel->CheckFrameAccounting().ok());
}

TEST(DemandPaging, PageCacheFillFailureIsCleanEnomem) {
  // Demand mode: the fill failure surfaces at fault time, leaves the reservation intact, and
  // a disarmed retry succeeds.
  RunOnAllSystems(/*demand=*/true, [](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, 0xC0FEu));
    auto fd = co_await g.Open("/cached", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await g.Write(*fd, *buf, 8));
    CO_ASSERT_OK(co_await g.Close(*fd));

    auto m = co_await g.MmapFile("/cached", kPageSize);
    CO_ASSERT_OK(m);
    Kernel& k = g.kernel();
    const uint64_t frames0 = k.machine().frames().frames_in_use();
    k.fault_injector().Arm(FaultSite::kPageCacheFill, FaultPolicy::AfterBudget(0));
    auto load = g.Load<uint64_t>(*m, m->base());
    k.fault_injector().DisarmAll();
    CO_ASSERT_TRUE(!load.ok());
    CO_ASSERT_EQ(load.code(), Code::kErrNoMem);
    CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);
    CO_ASSERT_EQ(k.page_cache().resident_pages(), 0u);
    auto retry = g.Load<uint64_t>(*m, m->base());
    CO_ASSERT_OK(retry);
    CO_ASSERT_EQ(*retry, 0xC0FEu);
  });
}

TEST(DemandPaging, EagerMmapFileFillFailureFailsTheSyscall) {
  // Eager mode: MmapFile populates at map time, so the injected fill failure surfaces as
  // the syscall's ENOMEM with nothing mapped and nothing leaked.
  auto kernel = MakeUforkKernel(SmallConfig(/*demand=*/false));
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, 0xE44u));
    auto fd = co_await g.Open("/eager", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await g.Write(*fd, *buf, 8));
    CO_ASSERT_OK(co_await g.Close(*fd));

    Kernel& k = g.kernel();
    const uint64_t frames0 = k.machine().frames().frames_in_use();
    k.fault_injector().Arm(FaultSite::kPageCacheFill, FaultPolicy::AfterBudget(0));
    auto failed = co_await g.MmapFile("/eager", kPageSize);
    k.fault_injector().DisarmAll();
    CO_ASSERT_EQ(failed.code(), Code::kErrNoMem);
    CO_ASSERT_EQ(k.machine().frames().frames_in_use(), frames0);

    auto m = co_await g.MmapFile("/eager", kPageSize);
    CO_ASSERT_OK(m);
    auto word = g.Load<uint64_t>(*m, m->base());
    CO_ASSERT_OK(word);
    CO_ASSERT_EQ(*word, 0xE44u);
  }),
                           "eager-fill-fail");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  ASSERT_TRUE(kernel->CheckFrameAccounting().ok());
}

// --- exec of a demand-paged image (×3 systems) ----------------------------------------------

// Writes `word` as the first eight bytes of a new file at `path`.
SimTask<void> WriteWordFile(Guest& g, std::string path, uint64_t word) {
  auto buf = g.Malloc(64);
  CO_ASSERT_OK(buf);
  CO_ASSERT_OK(g.StoreAt<uint64_t>(*buf, 0, word));
  auto fd = co_await g.Open(std::move(path), kOpenWrite | kOpenCreate);
  CO_ASSERT_OK(fd);
  CO_ASSERT_OK(co_await g.Write(*fd, *buf, 8));
  CO_ASSERT_OK(co_await g.Close(*fd));
}

TEST(DemandPaging, ExecTearsDownReservationsOnEverySystem) {
  // A forked child still holds heap/stack/TLS reservations when it execs: the teardown must
  // skip them (there is no frame to release) instead of aborting the host.
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig(/*demand=*/true));
    kernel->procs().RegisterProgram("worker", MakeGuestEntry([](Guest& g) -> SimTask<void> {
                              auto block = g.Malloc(64);
                              CO_ASSERT_OK(block);
                              CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 42));
                              co_await g.Exit(7);
                            }));
    auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                               auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                                 CO_ASSERT_TRUE(cg.uproc().page_table->not_present_pages() > 0);
                                 (void)co_await cg.Exec("worker");
                                 ADD_FAILURE() << "exec must not return on success";
                               });
                               CO_ASSERT_OK(child);
                               auto waited = co_await g.Wait();
                               CO_ASSERT_OK(waited);
                               CO_ASSERT_EQ(waited->status, 7);
                             }),
                             "fork-exec");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

TEST(DemandPaging, ExecDropsTheOldImagesFileMappings) {
  // The old image maps /a; the exec'd image maps /b at the same address (the mmap zone starts
  // over). Its first touch must fill from /b, not from the old image's stale /a mapping.
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig(/*demand=*/true));
    uint64_t old_va = 0;
    uint64_t new_va = 0;
    uint64_t seen = 0;
    kernel->procs().RegisterProgram(
        "map-b", MakeGuestEntry([&new_va, &seen](Guest& g) -> SimTask<void> {
          auto m = co_await g.MmapFile("/b", kPageSize);
          CO_ASSERT_OK(m);
          new_va = m->base();
          auto word = g.Load<uint64_t>(*m, m->base());
          CO_ASSERT_OK(word);
          seen = *word;
        }));
    auto pid = kernel->Spawn(MakeGuestEntry([&old_va](Guest& g) -> SimTask<void> {
                               co_await WriteWordFile(g, "/a", 0xAAAAu);
                               co_await WriteWordFile(g, "/b", 0xBBBBu);
                               auto m = co_await g.MmapFile("/a", kPageSize);
                               CO_ASSERT_OK(m);
                               old_va = m->base();
                               (void)co_await g.Exec("map-b");
                               ADD_FAILURE() << "exec must not return on success";
                             }),
                             "exec-remap");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(new_va, old_va);
    EXPECT_EQ(seen, 0xBBBBu);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- fleet footprint: the ratio the benchmark regression gate pins -----------------------------

TEST(DemandPaging, SpawnedFleetFootprintAtLeastHalvesUnderDemand) {
  uint64_t resident[2] = {0, 0};
  for (int demand = 0; demand < 2; ++demand) {
    uint64_t* slot = &resident[demand];
    auto kernel = MakeUforkKernel(SmallConfig(demand != 0));
    kernel->procs().RegisterProgram("worker", MakeGuestEntry([](Guest& g) -> SimTask<void> {
                              // Stay resident while the parent samples the fleet footprint.
                              co_await g.Nanosleep(Cycles{10'000'000});
                            }));
    auto pid = kernel->Spawn(MakeGuestEntry([slot](Guest& g) -> SimTask<void> {
                               for (int i = 0; i < 8; ++i) {
                                 auto worker = co_await g.SpawnProgram("worker");
                                 CO_ASSERT_OK(worker);
                               }
                               *slot = g.kernel().ResidentFrames();
                               for (int i = 0; i < 8; ++i) {
                                 auto waited = co_await g.Wait();
                                 CO_ASSERT_OK(waited);
                               }
                             }),
                             "fleet");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
  }
  ASSERT_GT(resident[0], 0u);
  ASSERT_GT(resident[1], 0u);
  // The footprint.demand_over_eager row of bench/gates.py pins this at ≤ 0.5× for the httpd
  // fleet benchmark; the unit-level spawn fleet must clear the same bar.
  EXPECT_LE(resident[1] * 2, resident[0]);
}

}  // namespace
}  // namespace ufork
