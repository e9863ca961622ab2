// Tests for the μFork engine itself: the relocation scanner, register relocation, chained
// forks, region tombstones, the unsafe-CoW demonstration, ASLR, and address-space compaction.
#include <gtest/gtest.h>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "src/ufork/compaction.h"
#include "src/ufork/relocate.h"
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

// --- relocation scanner unit tests ---------------------------------------------------------

class RelocateTest : public ::testing::Test {
 protected:
  RelocateTest() : as_(4 * kGiB, 8 * kGiB) {
    parent_base_ = as_.AllocateRegion(kRegionSize, 2 * kMiB).value();
    child_base_ = as_.AllocateRegion(kRegionSize, 2 * kMiB).value();
  }

  Capability ParentCap(uint64_t offset, uint64_t len) {
    return Capability::Root(parent_base_ + offset, len, kPermAllData);
  }

  static constexpr uint64_t kRegionSize = 4 * kMiB;
  AddressSpace as_;
  uint64_t parent_base_ = 0;
  uint64_t child_base_ = 0;
  Frame frame_;
};

TEST_F(RelocateTest, RelocatesParentPointingCaps) {
  frame_.StoreCap(0, ParentCap(0x1000, 64));
  frame_.StoreCap(64, ParentCap(0x2000, 128).WithAddress(parent_base_ + 0x2010));
  const RelocationResult result = RelocateFrameInto(frame_, as_, child_base_, kRegionSize);
  EXPECT_EQ(result.tags_seen, 2u);
  EXPECT_EQ(result.relocated, 2u);
  EXPECT_EQ(result.stripped, 0u);
  EXPECT_EQ(frame_.LoadCap(0).base(), child_base_ + 0x1000);
  EXPECT_EQ(frame_.LoadCap(64).address(), child_base_ + 0x2010);
}

TEST_F(RelocateTest, LeavesChildLocalCapsAlone) {
  const Capability local = Capability::Root(child_base_ + 0x3000, 64, kPermAllData);
  frame_.StoreCap(16, local);
  const RelocationResult result = RelocateFrameInto(frame_, as_, child_base_, kRegionSize);
  EXPECT_EQ(result.relocated, 0u);
  EXPECT_TRUE(frame_.LoadCap(16).IdenticalTo(local));
}

TEST_F(RelocateTest, LeavesIntegersAlone) {
  frame_.StoreCap(32, Capability::Integer(parent_base_ + 0x1000));  // integer that LOOKS like a pointer
  const RelocationResult result = RelocateFrameInto(frame_, as_, child_base_, kRegionSize);
  EXPECT_EQ(result.tags_seen, 0u);
  // No tag, no relocation: this is exactly the misidentification problem (§3.2 C1) that
  // hardware tags solve.
  EXPECT_EQ(frame_.LoadCap(32).address(), parent_base_ + 0x1000);
  EXPECT_FALSE(frame_.LoadCap(32).tag());
}

TEST_F(RelocateTest, StripsCapsIntoUnownedMemory) {
  // A would-be kernel capability leak: points outside any region.
  frame_.StoreCap(48, Capability::Root(1 * kGiB, 4096, kPermAllData));
  const RelocationResult result = RelocateFrameInto(frame_, as_, child_base_, kRegionSize);
  EXPECT_EQ(result.stripped, 1u);
  EXPECT_FALSE(frame_.LoadCap(48).tag());
}

TEST_F(RelocateTest, GrandparentCapsRelocateByOwningRegion) {
  // Chained forks: the frame holds a capability into a THIRD region (the grandparent's).
  const uint64_t gp_base = as_.AllocateRegion(kRegionSize, 2 * kMiB).value();
  frame_.StoreCap(0, Capability::Root(gp_base + 0x5000, 256, kPermAllData));
  const RelocationResult result = RelocateFrameInto(frame_, as_, child_base_, kRegionSize);
  EXPECT_EQ(result.relocated, 1u);
  EXPECT_EQ(frame_.LoadCap(0).base(), child_base_ + 0x5000);
}

TEST_F(RelocateTest, RegisterFileRelocation) {
  RegisterFile regs;
  regs.ddc = ParentCap(0, kRegionSize);
  regs.csp = ParentCap(0x100000, 0x1000).WithAddress(parent_base_ + 0x100800);
  regs.c[0] = ParentCap(0x4000, 64);
  regs.c[1] = Capability::Integer(12345);
  const RelocationResult result =
      RelocateRegisterFile(regs, parent_base_, kRegionSize, child_base_);
  EXPECT_EQ(result.relocated, 3u);
  EXPECT_EQ(regs.ddc.base(), child_base_);
  EXPECT_EQ(regs.csp.address(), child_base_ + 0x100800);
  EXPECT_EQ(regs.c[0].base(), child_base_ + 0x4000);
  EXPECT_EQ(regs.c[1].address(), 12345u);  // integers untouched
}

// --- end-to-end engine behaviour -------------------------------------------------------------

TEST(UforkEngine, UnsafeCowLeaksStaleParentCapability) {
  // The experiment that motivates CoPA (§3.8): classic CoW without capability-load faults
  // lets a child load a stale capability that still points into the PARENT's memory — an
  // isolation violation by construction.
  KernelConfig config = TinyConfig();
  config.strategy = ForkStrategy::kUnsafeCow;
  auto kernel = MakeUforkKernel(config);
  bool violation_observed = false;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&violation_observed](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 7777));
        // Plant a pointer in a heap page that is NOT proactively copied.
        auto pointer_cell = g.Malloc(16);
        CO_ASSERT_OK(pointer_cell);
        CO_ASSERT_OK(g.StoreCap(*pointer_cell, pointer_cell->base(), *block));
        const uint64_t cell_off = pointer_cell->base() - g.base();
        auto child = co_await g.Fork([&violation_observed, cell_off](Guest& cg) -> SimTask<void> {
          // Load the pointer: no load-cap fault fires under UnsafeCoW, so the capability
          // still targets the PARENT region.
          auto stale = cg.LoadCap(cg.ddc(), cg.base() + cell_off);
          CO_ASSERT_OK(stale);
          CO_ASSERT_TRUE(stale->tag());
          const bool points_into_self =
              stale->base() >= cg.base() && stale->base() < cg.base() + cg.uproc().size;
          violation_observed = !points_into_self;
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
      }),
      "unsafe");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(violation_observed)
      << "UnsafeCoW must exhibit the stale-capability leak CoPA exists to prevent";
}

TEST(UforkEngine, CopaPreventsTheSameLeak) {
  KernelConfig config = TinyConfig();
  config.strategy = ForkStrategy::kCopa;
  auto kernel = MakeUforkKernel(config);
  bool confined = false;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&confined](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        auto pointer_cell = g.Malloc(16);
        CO_ASSERT_OK(pointer_cell);
        CO_ASSERT_OK(g.StoreCap(*pointer_cell, pointer_cell->base(), *block));
        const uint64_t cell_off = pointer_cell->base() - g.base();
        auto child = co_await g.Fork([&confined, cell_off](Guest& cg) -> SimTask<void> {
          auto relocated = cg.LoadCap(cg.ddc(), cg.base() + cell_off);
          CO_ASSERT_OK(relocated);
          CO_ASSERT_TRUE(relocated->tag());
          confined = relocated->base() >= cg.base() &&
                     relocated->top() <= cg.base() + cg.uproc().size;
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
      }),
      "copa");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(confined);
}

TEST(UforkEngine, ParentExitWithLiveChildTombstonesRegion) {
  auto kernel = MakeUforkKernel(TinyConfig());
  bool child_read_ok = false;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&child_read_ok](Guest& g) -> SimTask<void> {
        // init forks a middle process which forks a grandchild and exits immediately,
        // leaving the grandchild sharing the middle process's frames.
        auto middle = co_await g.Fork([&child_read_ok](Guest& mg) -> SimTask<void> {
          auto block = mg.Malloc(64);
          CO_ASSERT_OK(block);
          CO_ASSERT_OK(mg.StoreAt<uint64_t>(*block, 0, 4242));
          CO_ASSERT_OK(mg.GotStore(kGotSlotFirstUser, *block));
          auto grandchild = co_await mg.Fork([&child_read_ok](Guest& gg) -> SimTask<void> {
            co_await gg.Nanosleep(Milliseconds(2));  // let the middle process exit first
            auto cap = gg.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_OK(cap);
            auto v = gg.LoadAt<uint64_t>(*cap, 0);  // CoPA relocation through a dead region
            CO_ASSERT_OK(v);
            child_read_ok = *v == 4242;
            co_await gg.Exit(0);
          });
          CO_ASSERT_OK(grandchild);
          co_await mg.Exit(0);  // exits while the grandchild still shares frames
        });
        CO_ASSERT_OK(middle);
        (void)co_await g.Wait();
        // The orphaned grandchild is reparented to init (us).
        (void)co_await g.Wait();
      }),
      "init");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(child_read_ok);
  EXPECT_EQ(kernel->stats().regions_tombstoned, 1u)
      << "the middle region must stay reserved for relocation lookups";
}

TEST(UforkEngine, AslrRandomizesChildPlacement) {
  std::set<uint64_t> bases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    KernelConfig config = TinyConfig();
    config.aslr_seed = seed;
    auto kernel = MakeUforkKernel(config);
    uint64_t child_base = 0;
    auto pid = kernel->Spawn(
        MakeGuestEntry([&child_base](Guest& g) -> SimTask<void> {
          auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
            co_await cg.Exit(0);
          });
          CO_ASSERT_OK(child);
          child_base = g.kernel().FindUproc(*child)->base;
          (void)co_await g.Wait();
        }),
        "aslr");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    bases.insert(child_base);
  }
  EXPECT_GT(bases.size(), 1u);
}

TEST(UforkEngine, ForkFailsCleanlyWhenPhysicalMemoryExhausted) {
  KernelConfig config = TinyConfig();
  // The tiny image maps 86 pages; leave room for exactly one of fork's two proactive copies
  // (GOT + allocator metadata) so the second fails.
  config.phys_mem_bytes = 87 * kPageSize;
  auto kernel = MakeUforkKernel(config);
  Code observed = Code::kOk;
  auto pid = kernel->Spawn(MakeGuestEntry([&observed](Guest& g) -> SimTask<void> {
                             auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                               co_await cg.Exit(0);
                             });
                             observed = child.code();
                             co_return;
                           }),
                           "oom");
  // Either the spawn itself or the fork must report exhaustion, not crash.
  if (pid.ok()) {
    kernel->Run();
    EXPECT_EQ(observed, Code::kErrNoMem);
  } else {
    EXPECT_EQ(pid.code(), Code::kErrNoMem);
  }
}

// --- the fork sweep against a per-page reference ---------------------------------------------

// One in-use page of a region: offset, PTE and the frame's refcount (0 for a reservation).
struct PageState {
  uint64_t offset;
  Pte pte;
  uint32_t refs;
  bool operator==(const PageState&) const = default;
};

// The region's in-use pages, read one Lookup at a time (independent of the sweeps under test).
std::vector<PageState> Snapshot(Kernel& kernel, const Uproc& uproc) {
  std::vector<PageState> pages;
  const FrameAllocator& frames = kernel.machine().frames();
  for (uint64_t off = 0; off < uproc.size; off += kPageSize) {
    if (const std::optional<Pte> pte = uproc.page_table->Lookup(uproc.base + off)) {
      pages.push_back({off, *pte, PtePopulated(*pte) ? frames.RefCount(pte->frame) : 0});
    }
  }
  return pages;
}

// A spawned, not yet running μprocess whose image (4.7 MiB, three leaves) also holds a
// MAP_SHARED page, a reservation in the mmap zone and a read-only page in a writable segment.
Uproc& SpawnVariedParent(Kernel& kernel) {
  auto pid = kernel.Spawn(MakeGuestEntry([](Guest&) -> SimTask<void> { co_return; }), "parent");
  UF_CHECK(pid.ok());
  Uproc& parent = *kernel.FindUproc(*pid);
  const UprocLayout& layout = kernel.layout();
  PageTable& pt = *parent.page_table;
  pt.Map(parent.base + layout.mmap_off(), kernel.machine().frames().Allocate().value(),
         kPteRw | kPteShared);
  pt.Map(parent.base + layout.mmap_off() + kPageSize, kInvalidFrame,
         kPteNotPresent | kPteZeroFill);
  pt.SetFlags(parent.base + layout.data_off(), kPteRead);
  return parent;
}

class ForkSweepTest
    : public ::testing::TestWithParam<std::tuple<ForkStrategy, /*demand_paging=*/bool>> {};

TEST_P(ForkSweepTest, ChildMatchesThePerPageReference) {
  const auto [strategy, demand] = GetParam();
  KernelConfig config;  // default layout: the image spans three 2 MiB leaves
  config.strategy = strategy;
  config.demand_paging = demand;
  auto kernel = MakeUforkKernel(config);
  Uproc& parent = SpawnVariedParent(*kernel);
  const std::vector<PageState> before = Snapshot(*kernel, parent);
  ASSERT_GT(parent.size, 2 * kMiB);

  auto pid = kernel->backend().Fork(*kernel, parent,
                                    MakeGuestEntry([](Guest&) -> SimTask<void> { co_return; }));
  ASSERT_TRUE(pid.ok());
  Uproc& child = *kernel->FindUproc(*pid);
  const std::vector<PageState> parent_after = Snapshot(*kernel, parent);
  const std::vector<PageState> child_after = Snapshot(*kernel, child);
  ASSERT_EQ(parent_after.size(), before.size());
  ASSERT_EQ(child_after.size(), before.size());

  // Per-page reference: the state each parent page and its child copy must end in.
  const UprocLayout& layout = kernel->layout();
  for (size_t i = 0; i < before.size(); ++i) {
    const PageState& old = before[i];
    SCOPED_TRACE(old.offset);
    const uint32_t seg = kernel->SegmentFlagsAt(old.offset);
    PageState parent_ref = old;
    PageState child_ref = old;
    if (!PtePopulated(old.pte)) {
      // Reservations are inherited verbatim.
    } else if ((old.pte.flags & kPteShared) != 0) {
      parent_ref.refs = child_ref.refs = old.refs + 1;
    } else if (strategy == ForkStrategy::kFull || layout.IsProactiveCopyPage(old.offset)) {
      child_ref.pte = Pte{child_after[i].pte.frame, seg};
      child_ref.refs = 1;
      EXPECT_NE(child_after[i].pte.frame, old.pte.frame);
    } else {
      parent_ref.refs = child_ref.refs = old.refs + 1;
      if ((old.pte.flags & kPteWrite) != 0) {
        parent_ref.pte.flags = (old.pte.flags & ~kPteWrite) | kPteCow;
      }
      child_ref.pte.flags = strategy == ForkStrategy::kCoa ? uint32_t{kPteCow}
                            : strategy == ForkStrategy::kCopa
                                ? (seg & ~kPteWrite) | kPteCow | kPteLoadCapFault
                                : (seg & ~kPteWrite) | kPteCow;
    }
    EXPECT_EQ(parent_after[i], parent_ref);
    EXPECT_EQ(child_after[i], child_ref);
  }
  kernel->Run();
  EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ForkSweepTest,
    ::testing::Combine(::testing::Values(ForkStrategy::kCopa, ForkStrategy::kCoa,
                                         ForkStrategy::kFull, ForkStrategy::kUnsafeCow),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ForkSweepTest::ParamType>& tpi) {
      return std::string(ForkStrategyName(std::get<0>(tpi.param))) +
             (std::get<1>(tpi.param) ? "Paged" : "Eager");
    });

// A proactive copy fails past the first 2 MiB leaf; the rollback must leave the parent's
// PTEs and refcounts exactly as before the fork. Under Full the 600th page copy fails; under
// CoPA a 3 MiB data segment is write-protected across the leaf boundary before the allocator
// metadata page's copy (after the GOT's) fails.
TEST(UforkEngine, ForkRollbackAcrossALeafBoundaryRestoresTheParent) {
  struct Case {
    ForkStrategy strategy;
    uint64_t data_size;
    uint64_t failing_alloc;
  };
  const LayoutConfig defaults;
  const Case cases[] = {
      {ForkStrategy::kFull, defaults.data_size, 600},
      {ForkStrategy::kCopa, 3 * kMiB, defaults.got_size / kPageSize + 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(ForkStrategyName(c.strategy));
    KernelConfig config;
    config.strategy = c.strategy;
    config.layout.data_size = c.data_size;
    auto kernel = MakeUforkKernel(config);
    Uproc& parent = SpawnVariedParent(*kernel);
    const std::vector<PageState> before = Snapshot(*kernel, parent);
    const uint64_t frames0 = kernel->machine().frames().frames_in_use();
    const uint64_t mapped0 = kernel->shared_page_table().mapped_pages();

    kernel->fault_injector().Arm(FaultSite::kFrameAlloc, FaultPolicy::Nth(c.failing_alloc));
    auto pid = kernel->backend().Fork(
        *kernel, parent, MakeGuestEntry([](Guest&) -> SimTask<void> { co_return; }));
    kernel->fault_injector().DisarmAll();
    ASSERT_EQ(pid.code(), Code::kErrNoMem);
    if (c.strategy == ForkStrategy::kCopa) {
      // The demoted data segment crosses the first leaf boundary.
      EXPECT_GT(kernel->layout().data_off() + c.data_size, 2 * kMiB);
    }
    EXPECT_EQ(Snapshot(*kernel, parent), before);
    EXPECT_EQ(kernel->machine().frames().frames_in_use(), frames0);
    EXPECT_EQ(kernel->shared_page_table().mapped_pages(), mapped0);
    EXPECT_TRUE(parent.children.empty());
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// A frame nobody wrote holds no host storage (DESIGN.md §4.6). Loading a word from every page
// of a 16 MiB heap adds none, and a forked CoPA child whose capability loads pull the heap in
// through 16-page fault-around windows gives storage only to copies of written pages.
TEST(UforkEngine, HeapPagesNobodyWroteGetNoStorage) {
  KernelConfig config;
  config.strategy = ForkStrategy::kCopa;
  config.layout.heap_size = 16 * kMiB;
  config.fault_around.max_window = kMaxFaultAroundWindow;
  config.fault_around.adaptive = false;
  auto kernel = MakeUforkKernel(config);
  const FrameAllocator& frames = kernel->machine().frames();
  const uint64_t heap_off = kernel->layout().heap_off();
  const uint64_t heap_pages = kernel->layout().heap_size() / kPageSize;
  constexpr uint64_t kTaggedEvery = 2 * kMaxFaultAroundWindow;
  uint64_t unwritten_copies = 0;
  auto load_every_page = [&](Guest& g) {
    bool ok = true;
    for (uint64_t i = 0; i < heap_pages; ++i) {
      ok &= g.Load<uint64_t>(g.ddc(), g.base() + heap_off + i * kPageSize).ok();
    }
    return ok;
  };
  auto pid = kernel->Spawn(
      MakeGuestEntry([&](Guest& g) -> SimTask<void> {
        const uint64_t storage0 = frames.storage_frames();
        CO_ASSERT_TRUE(load_every_page(g));
        CO_ASSERT_EQ(frames.storage_frames(), storage0);
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        for (uint64_t i = kTaggedEvery; i < heap_pages; i += kTaggedEvery) {
          CO_ASSERT_OK(g.StoreCap(g.ddc(), g.base() + heap_off + i * kPageSize, *block));
        }
        const uint64_t parent_base = g.base();
        auto child = co_await g.Fork([&, parent_base](Guest& cg) -> SimTask<void> {
          const uint64_t storage1 = frames.storage_frames();
          CO_ASSERT_TRUE(load_every_page(cg));
          CO_ASSERT_EQ(frames.storage_frames(), storage1);
          for (uint64_t i = 0; i < heap_pages; ++i) {
            CO_ASSERT_OK(cg.LoadCap(cg.ddc(), cg.base() + heap_off + i * kPageSize));
          }
          const PageTable& pt = *cg.uproc().page_table;
          for (uint64_t i = 0; i < heap_pages; ++i) {
            const std::optional<Pte> mine = pt.Lookup(cg.base() + heap_off + i * kPageSize);
            const std::optional<Pte> theirs = pt.Lookup(parent_base + heap_off + i * kPageSize);
            CO_ASSERT_TRUE(mine.has_value() && theirs.has_value());
            if (mine->frame != theirs->frame && !frames.HasStorage(theirs->frame)) {
              ++unwritten_copies;
              CO_ASSERT_TRUE(!frames.HasStorage(mine->frame));
            }
          }
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
      }),
      "heap");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_GT(kernel->stats().pages_copied_on_fault, heap_pages / kTaggedEvery);
  EXPECT_GT(unwritten_copies, heap_pages / 4);
}

// --- compaction ----------------------------------------------------------------------------

// Parks the calling μprocess on a named message queue until a waker posts to it — a genuine
// blocking safepoint (sleeps do not stop the DES; blocked waits do).
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

TEST(Compaction, SlidesParkedRegionLeftAndRelocates) {
  auto kernel = MakeUforkKernel(TinyConfig());
  // A occupies the lowest region and exits; B parks at a safepoint. Compaction slides B into
  // A's hole; B then re-derives its pointers from the relocated GOT.
  auto a = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                           g.Compute(10);
                           co_return;
                         }),
                         "A");
  bool b_ok_after_compaction = false;
  auto b = kernel->Spawn(
      MakeGuestEntry([&b_ok_after_compaction](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 31337));
        CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *block));
        co_await ParkOnQueue(g, "/mq/park-b");  // safepoint
        auto cap = g.GotLoad(kGotSlotFirstUser);
        CO_ASSERT_OK(cap);
        CO_ASSERT_TRUE(cap->tag());
        EXPECT_GE(cap->base(), g.base());
        auto v = g.LoadAt<uint64_t>(*cap, 0);
        CO_ASSERT_OK(v);
        b_ok_after_compaction = *v == 31337;
      }),
      "B");
  ASSERT_TRUE(a.ok() && b.ok());
  kernel->sched().set_allow_blocked_exit(true);
  kernel->Run();  // A exits; B parks

  const uint64_t b_base_before = kernel->FindUproc(*b)->base;
  auto stats = CompactAddressSpace(*kernel);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->regions_moved, 1u);
  EXPECT_GT(stats->caps_relocated, 0u);
  EXPECT_LT(kernel->FindUproc(*b)->base, b_base_before);

  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/park-b")), "waker").ok());
  kernel->Run();  // B wakes, re-derives pointers, verifies
  EXPECT_TRUE(b_ok_after_compaction);
}

TEST(Compaction, SkipsRegionsEntangledWithForkPartners) {
  auto kernel = MakeUforkKernel(TinyConfig());
  auto hole = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                              g.Compute(10);
                              co_return;
                            }),
                            "hole");
  auto parent = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          co_await ParkOnQueue(cg, "/mq/park-child");
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
      }),
      "parent");
  ASSERT_TRUE(hole.ok() && parent.ok());
  kernel->sched().set_allow_blocked_exit(true);
  kernel->Run();  // hole exits; parent blocked in wait(); child parked, CoW-entangled

  auto stats = CompactAddressSpace(*kernel);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->regions_moved, 0u);
  EXPECT_GE(stats->regions_skipped_shared, 1u) << "CoW-entangled regions must not move";

  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/park-child")), "waker").ok());
  kernel->Run();
}

// Shared setup for the compaction fault-injection tests: A makes a hole, B parks at a
// safepoint with a sentinel value reachable through its GOT, and the test decides what the
// injector does to the compactor. Returns B's pid; `b_ok` reports whether B's pointers still
// resolved after it woke.
Pid ParkVictim(Kernel& kernel, const std::string& queue, bool& b_ok) {
  auto a = kernel.Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                          g.Compute(10);
                          co_return;
                        }),
                        "A");
  UF_CHECK(a.ok());
  GuestFn victim = [&b_ok, queue](Guest& g) -> SimTask<void> {
    auto block = g.Malloc(64);
    CO_ASSERT_OK(block);
    CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 31337));
    CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *block));
    co_await ParkOnQueue(g, queue);  // safepoint
    auto cap = g.GotLoad(kGotSlotFirstUser);
    CO_ASSERT_OK(cap);
    CO_ASSERT_TRUE(cap->tag());
    auto v = g.LoadAt<uint64_t>(*cap, 0);
    CO_ASSERT_OK(v);
    b_ok = *v == 31337;
  };
  auto b = kernel.Spawn(MakeGuestEntry(std::move(victim)), "B");
  UF_CHECK(b.ok());
  kernel.sched().set_allow_blocked_exit(true);
  kernel.Run();  // A exits; B parks
  return *b;
}

TEST(Compaction, TargetGrantFailureSkipsTheRegionAndDegrades) {
  auto kernel = MakeUforkKernel(TinyConfig());
  bool b_ok = false;
  const Pid b = ParkVictim(*kernel, "/mq/park-grant", b_ok);
  const uint64_t base_before = kernel->FindUproc(b)->base;

  // The target-region grant fails: the sweep must keep the fragmented layout and move on —
  // before §4.9 this was a host CHECK that killed the whole simulated machine.
  kernel->fault_injector().Arm(FaultSite::kCompactTarget, FaultPolicy::OneShot());
  auto degraded = CompactAddressSpace(*kernel);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->regions_skipped_grant_failed, 1u);
  EXPECT_EQ(degraded->regions_moved, 0u);
  EXPECT_EQ(kernel->FindUproc(b)->base, base_before) << "a skipped region must not move";

  // Pressure gone (oneshot): the next sweep performs the identical move.
  auto retried = CompactAddressSpace(*kernel);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->regions_moved, 1u);
  EXPECT_LT(kernel->FindUproc(b)->base, base_before);

  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/park-grant")), "waker").ok());
  kernel->Run();
  EXPECT_TRUE(b_ok);
}

TEST(Compaction, RelocateFailureRollsTheRegionBackInPlace) {
  auto kernel = MakeUforkKernel(TinyConfig());
  bool b_ok = false;
  const Pid b = ParkVictim(*kernel, "/mq/park-abort", b_ok);
  const uint64_t base_before = kernel->FindUproc(b)->base;

  // Fail the relocation scan on the region's second frame: by then one frame's capabilities
  // are already rewritten to the new base, so the abort path must reverse-relocate them,
  // remap every page back, release the target grant — and charge none of it to the stats.
  kernel->fault_injector().Arm(FaultSite::kCompactRelocate, FaultPolicy::Nth(2));
  auto aborted = CompactAddressSpace(*kernel);
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(aborted->regions_aborted, 1u);
  EXPECT_EQ(aborted->regions_moved, 0u);
  EXPECT_EQ(aborted->pages_remapped, 0u) << "an aborted move must not leak partial counters";
  EXPECT_EQ(aborted->caps_relocated, 0u);
  EXPECT_EQ(kernel->FindUproc(b)->base, base_before) << "the region must be back in place";
  kernel->fault_injector().DisarmAll();

  auto retried = CompactAddressSpace(*kernel);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->regions_moved, 1u);
  EXPECT_LT(kernel->FindUproc(b)->base, base_before);

  // B wakes in the moved region and its sentinel must still resolve — proof the abort left
  // every capability coherent for the later, successful move.
  ASSERT_TRUE(kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/park-abort")), "waker").ok());
  kernel->Run();
  EXPECT_TRUE(b_ok);
}

}  // namespace
}  // namespace ufork
