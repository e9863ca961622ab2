// Integration tests for the kernel: μprocess lifecycle, syscalls, pipes, VFS, and the
// isolation machinery — on the μFork backend.
#include "src/kernel/kernel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tests/guest_test_util.h"

#include "src/baseline/system.h"
#include "src/guest/guest.h"

namespace ufork {
namespace {

KernelConfig SmallConfig() {
  KernelConfig config;
  config.layout.text_size = 64 * kKiB;
  config.layout.rodata_size = 16 * kKiB;
  config.layout.got_size = 4 * kKiB;
  config.layout.data_size = 16 * kKiB;
  config.layout.heap_size = 512 * kKiB;
  config.layout.stack_size = 64 * kKiB;
  config.layout.tls_size = 4 * kKiB;
  config.layout.mmap_size = 256 * kKiB;
  return config;
}

TEST(Kernel, SpawnRunsToCompletion) {
  auto kernel = MakeUforkKernel(SmallConfig());
  bool ran = false;
  auto pid = kernel->Spawn(MakeGuestEntry([&ran](Guest& g) -> SimTask<void> {
                             auto self = co_await g.GetPid();
                             EXPECT_TRUE(self.ok());
                             EXPECT_EQ(*self, 1);
                             ran = true;
                           }),
                           "init");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(kernel->stats().exits, 1u);
  EXPECT_EQ(kernel->FindUproc(1), nullptr) << "init should be reaped after exit";
}

TEST(Kernel, GuestMemoryRoundTripThroughCapabilities) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto block = g.Malloc(256);
                             CO_ASSERT_TRUE(block.ok());
                             EXPECT_EQ(block->length(), 256u);
                             CO_ASSERT_TRUE(g.StoreAt<uint64_t>(*block, 0, 0x1234).ok());
                             auto v = g.LoadAt<uint64_t>(*block, 0);
                             CO_ASSERT_TRUE(v.ok());
                             EXPECT_EQ(*v, 0x1234u);
                             // Out-of-bounds through the tight allocation capability faults.
                             EXPECT_EQ(g.Load<uint64_t>(*block, block->base() + 256).code(),
                                       Code::kFaultBounds);
                             CO_ASSERT_TRUE(g.Free(*block).ok());
                             co_return;
                           }),
                           "mem");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, ForkChildSeesParentHeapAndIsIsolatedOnWrite) {
  auto kernel = MakeUforkKernel(SmallConfig());
  int checks = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&checks](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        CO_ASSERT_TRUE(block.ok());
        CO_ASSERT_TRUE(g.StoreAt<uint64_t>(*block, 0, 42).ok());
        // Publish the block through a GOT slot so the (relocated) child finds it.
        CO_ASSERT_TRUE(g.GotStore(kGotSlotFirstUser, *block).ok());

        auto child_pid = co_await g.Fork([&checks](Guest& cg) -> SimTask<void> {
          // The GOT was proactively copied and relocated: the slot holds a capability into
          // the CHILD region now.
          auto cap = cg.GotLoad(kGotSlotFirstUser);
          CO_ASSERT_TRUE(cap.ok());
          EXPECT_TRUE(cap->tag());
          EXPECT_GE(cap->base(), cg.base());
          EXPECT_LT(cap->base(), cg.base() + cg.uproc().size);
          auto v = cg.LoadAt<uint64_t>(*cap, 0);  // CoPA copy happens underneath
          CO_ASSERT_TRUE(v.ok());
          EXPECT_EQ(*v, 42u);
          // Child write must not be visible to the parent.
          CO_ASSERT_TRUE(cg.StoreAt<uint64_t>(*cap, 0, 99).ok());
          ++checks;
          co_await cg.Exit(7);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        auto waited = co_await g.Wait();
        CO_ASSERT_TRUE(waited.ok());
        EXPECT_EQ(waited->pid, *child_pid);
        EXPECT_EQ(waited->status, 7);
        auto v = g.LoadAt<uint64_t>(*block, 0);
        CO_ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, 42u) << "parent data must be unaffected by the child's write";
        ++checks;
      }),
      "forker");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(checks, 2);
  EXPECT_EQ(kernel->stats().forks, 1u);
}

TEST(Kernel, ParentWriteAfterForkDoesNotLeakToChild) {
  auto kernel = MakeUforkKernel(SmallConfig());
  int checks = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&checks](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        CO_ASSERT_TRUE(block.ok());
        CO_ASSERT_TRUE(g.StoreAt<uint64_t>(*block, 0, 1).ok());
        CO_ASSERT_TRUE(g.GotStore(kGotSlotFirstUser, *block).ok());
        auto child_pid = co_await g.Fork([&checks](Guest& cg) -> SimTask<void> {
          // Let the parent write first.
          co_await cg.Nanosleep(Milliseconds(1));
          auto cap = cg.GotLoad(kGotSlotFirstUser);
          CO_ASSERT_TRUE(cap.ok());
          auto v = cg.LoadAt<uint64_t>(*cap, 0);
          CO_ASSERT_TRUE(v.ok());
          EXPECT_EQ(*v, 1u) << "child must see the pre-fork value, not the parent's update";
          ++checks;
          co_await cg.Exit(0);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        CO_ASSERT_TRUE(g.StoreAt<uint64_t>(*block, 0, 2).ok());  // CoW break on parent side
        auto waited = co_await g.Wait();
        CO_ASSERT_TRUE(waited.ok());
        ++checks;
      }),
      "cow-parent");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(checks, 2);
  EXPECT_GE(kernel->machine().cow_faults(), 1u);
}

TEST(Kernel, WaitWithNoChildrenReturnsEchild) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto waited = co_await g.Wait();
                             EXPECT_EQ(waited.code(), Code::kErrChild);
                           }),
                           "lonely");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, PipeTransfersDataBetweenProcesses) {
  auto kernel = MakeUforkKernel(SmallConfig());
  std::string received;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&received](Guest& g) -> SimTask<void> {
        auto pipe_fds = co_await g.Pipe();
        CO_ASSERT_TRUE(pipe_fds.ok());
        const auto [rfd, wfd] = *pipe_fds;
        auto child_pid = co_await g.Fork([wfd](Guest& cg) -> SimTask<void> {
          auto msg = cg.PlaceString("hello from the child");
          CO_ASSERT_TRUE(msg.ok());
          auto n = co_await cg.Write(wfd, *msg, msg->length());
          CO_ASSERT_TRUE(n.ok());
          EXPECT_EQ(*n, static_cast<int64_t>(msg->length()));
          co_await cg.Exit(0);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        CO_ASSERT_TRUE((co_await g.Close(wfd)).ok());
        auto buf = g.Malloc(64);
        CO_ASSERT_TRUE(buf.ok());
        auto n = co_await g.Read(rfd, *buf, 64);
        CO_ASSERT_TRUE(n.ok());
        auto bytes = g.FetchBytes(*buf, static_cast<uint64_t>(*n));
        CO_ASSERT_TRUE(bytes.ok());
        received.assign(reinterpret_cast<const char*>(bytes->data()), bytes->size());
        // EOF after the child (sole writer) exits.
        auto eof = co_await g.Read(rfd, *buf, 64);
        CO_ASSERT_TRUE(eof.ok());
        EXPECT_EQ(*eof, 0);
        (void)co_await g.Wait();
      }),
      "piper");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(received, "hello from the child");
}

TEST(Kernel, VfsWriteReadRoundTrip) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto fd = co_await g.Open("/data.bin", kOpenWrite | kOpenCreate);
        CO_ASSERT_TRUE(fd.ok());
        auto msg = g.PlaceString("persistent bytes");
        CO_ASSERT_TRUE(msg.ok());
        CO_ASSERT_TRUE((co_await g.Write(*fd, *msg, msg->length())).ok());
        CO_ASSERT_TRUE((co_await g.Close(*fd)).ok());

        auto size = co_await g.FileSize("/data.bin");
        CO_ASSERT_TRUE(size.ok());
        EXPECT_EQ(*size, 16u);

        auto rfd = co_await g.Open("/data.bin", kOpenRead);
        CO_ASSERT_TRUE(rfd.ok());
        auto buf = g.Malloc(32);
        CO_ASSERT_TRUE(buf.ok());
        auto n = co_await g.Read(*rfd, *buf, 32);
        CO_ASSERT_TRUE(n.ok());
        EXPECT_EQ(*n, 16);
        auto bytes = g.FetchBytes(*buf, 16);
        CO_ASSERT_TRUE(bytes.ok());
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes->data()), 16),
                  "persistent bytes");
        CO_ASSERT_TRUE((co_await g.Rename("/data.bin", "/renamed.bin")).ok());
        auto gone = co_await g.Open("/data.bin", kOpenRead);
        EXPECT_EQ(gone.code(), Code::kErrNoEnt);
        co_return;
      }),
      "fs");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, FdsInheritedAcrossFork) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto fd = co_await g.Open("/log.txt", kOpenWrite | kOpenCreate);
        CO_ASSERT_TRUE(fd.ok());
        auto child_pid = co_await g.Fork([fd = *fd](Guest& cg) -> SimTask<void> {
          auto msg = cg.PlaceString("child");
          CO_ASSERT_TRUE(msg.ok());
          CO_ASSERT_TRUE((co_await cg.Write(fd, *msg, 5)).ok());
          co_await cg.Exit(0);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        (void)co_await g.Wait();
        // Shared offset: the parent's write lands after the child's.
        auto msg = g.PlaceString("parent");
        CO_ASSERT_TRUE(msg.ok());
        CO_ASSERT_TRUE((co_await g.Write(*fd, *msg, 6)).ok());
        auto size = co_await g.FileSize("/log.txt");
        CO_ASSERT_TRUE(size.ok());
        EXPECT_EQ(*size, 11u);
      }),
      "fd-inherit");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, MmapAnonReturnsBoundedCapability) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto cap = co_await g.MmapAnon(8 * kKiB);
        CO_ASSERT_TRUE(cap.ok());
        EXPECT_EQ(cap->length(), 8 * kKiB);
        CO_ASSERT_TRUE(g.Store<uint64_t>(*cap, cap->base() + 4096, 5).ok());
        auto v = g.Load<uint64_t>(*cap, cap->base() + 4096);
        CO_ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, 5u);
        // Exhaustion of the mmap zone.
        auto too_big = co_await g.MmapAnon(1 * kGiB);
        EXPECT_EQ(too_big.code(), Code::kErrNoMem);
        co_return;
      }),
      "mmap");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

// Several roots each SIGKILL three sleeping children and reap them all.
TEST(Kernel, KillTerminatesTarget) {
  constexpr int kRoots = 4;
  constexpr int kVictimsPerRoot = 3;
  auto kernel = MakeUforkKernel(SmallConfig());
  int victims_finished = 0;
  std::vector<int> statuses;
  for (int root = 0; root < kRoots; ++root) {
    auto pid = kernel->Spawn(
        MakeGuestEntry([&victims_finished, &statuses](Guest& g) -> SimTask<void> {
          std::vector<Pid> victims;
          for (int v = 0; v < kVictimsPerRoot; ++v) {
            auto child_pid = co_await g.Fork([&victims_finished](Guest& cg) -> SimTask<void> {
              co_await cg.Nanosleep(Seconds(100));
              ++victims_finished;  // must never run
              co_await cg.Exit(0);
            });
            CO_ASSERT_TRUE(child_pid.ok());
            victims.push_back(*child_pid);
          }
          co_await g.Nanosleep(Milliseconds(1));
          for (const Pid victim : victims) {
            CO_ASSERT_TRUE((co_await g.Kill(victim)).ok());
          }
          for (int v = 0; v < kVictimsPerRoot; ++v) {
            auto waited = co_await g.Wait();
            CO_ASSERT_TRUE(waited.ok());
            statuses.push_back(waited->status);
          }
        }),
        "killer" + std::to_string(root));
    ASSERT_TRUE(pid.ok());
  }
  kernel->Run();
  EXPECT_EQ(victims_finished, 0);
  EXPECT_EQ(statuses, std::vector<int>(kRoots * kVictimsPerRoot, -9));
}

TEST(Kernel, KillReapsTheVictimsZombieChildren) {
  // SIGKILL tears the victim down the way exit() does: its zombie child is reaped with it, and
  // its running child is reparented to init (the root, pid 1), which then waits for it.
  auto kernel = MakeUforkKernel(SmallConfig());
  std::vector<int> statuses;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&statuses](Guest& g) -> SimTask<void> {
        auto victim = co_await g.Fork([](Guest& vg) -> SimTask<void> {
          auto zombie = co_await vg.Fork([](Guest& cg) -> SimTask<void> { co_await cg.Exit(3); });
          CO_ASSERT_TRUE(zombie.ok());
          auto orphan = co_await vg.Fork([](Guest& cg) -> SimTask<void> {
            co_await cg.Nanosleep(Milliseconds(10));
            co_await cg.Exit(4);
          });
          CO_ASSERT_TRUE(orphan.ok());
          co_await vg.Nanosleep(Seconds(100));
          co_await vg.Exit(0);
        });
        CO_ASSERT_TRUE(victim.ok());
        co_await g.Nanosleep(Milliseconds(1));
        CO_ASSERT_TRUE((co_await g.Kill(*victim)).ok());
        for (int i = 0; i < 2; ++i) {
          auto waited = co_await g.Wait();
          CO_ASSERT_TRUE(waited.ok());
          statuses.push_back(waited->status);
        }
      }),
      "root");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(statuses, (std::vector<int>{-9, 4}));
  EXPECT_TRUE(kernel->AllPids().empty());
}

TEST(KernelDeathTest, SyscallThroughACorruptSentryAbortsTheHost) {
  // The sealed entry capability is kernel-held and no guest operation writes it, so a sentry
  // that fails to unseal is a simulator bug: a host abort, not an error returned to the guest.
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             g.uproc().syscall_sentry = Capability{};  // host-side corruption
                             (void)co_await g.GetPid();
                           }),
                           "corrupt");
  ASSERT_TRUE(pid.ok());
  EXPECT_DEATH(kernel->Run(), "syscall sentry");
}

TEST(Kernel, PrivilegedOpDeniedToUserCode) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto r = co_await g.PrivilegedOp();
                             EXPECT_EQ(r.code(), Code::kFaultSystem);
                           }),
                           "priv");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, CrossUprocDirectAddressingFaults) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto child_pid = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          // Direct addressing attack (§3.3): forge an address into the parent's region. The
          // DDC's bounds stop it.
          const uint64_t parent_base = cg.kernel().FindUproc(1)->base;
          auto r = cg.Load<uint64_t>(cg.ddc(), parent_base + cg.layout().heap_off());
          EXPECT_EQ(r.code(), Code::kFaultBounds);
          co_await cg.Exit(0);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        (void)co_await g.Wait();
      }),
      "attacker");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, SyscallBufferOutsideRegionRejected) {
  auto kernel = MakeUforkKernel(SmallConfig());  // isolation kFull by default
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto fd = co_await g.Open("/x", kOpenWrite | kOpenCreate);
        CO_ASSERT_TRUE(fd.ok());
        // A capability spanning another region (kernel-forged here to simulate a confused
        // deputy attempt) is rejected by validation before any transfer.
        const Capability foreign = Capability::Root(2 * kGiB, kPageSize, kPermAllData);
        auto r = co_await g.kernel().files().Write(g.uproc(), *fd, foreign, 2 * kGiB, 16);
        EXPECT_EQ(r.code(), Code::kErrAccess);
        co_return;
      }),
      "deputy");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Kernel, NestedForksThreeGenerations) {
  auto kernel = MakeUforkKernel(SmallConfig());
  int depth_reached = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&depth_reached](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(32);
        CO_ASSERT_TRUE(block.ok());
        CO_ASSERT_TRUE(g.StoreAt<uint64_t>(*block, 0, 1111).ok());
        CO_ASSERT_TRUE(g.GotStore(kGotSlotFirstUser, *block).ok());
        auto c1 = co_await g.Fork([&depth_reached](Guest& g1) -> SimTask<void> {
          auto c2 = co_await g1.Fork([&depth_reached](Guest& g2) -> SimTask<void> {
            // Grandchild: the value must have survived two relocation hops.
            auto cap = g2.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_TRUE(cap.ok());
            auto v = g2.LoadAt<uint64_t>(*cap, 0);
            CO_ASSERT_TRUE(v.ok());
            EXPECT_EQ(*v, 1111u);
            depth_reached = 2;
            co_await g2.Exit(0);
          });
          CO_ASSERT_TRUE(c2.ok());
          (void)co_await g1.Wait();
          co_await g1.Exit(0);
        });
        CO_ASSERT_TRUE(c1.ok());
        (void)co_await g.Wait();
      }),
      "gen0");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(depth_reached, 2);
}

TEST(Kernel, ForkStatsPopulated) {
  auto kernel = MakeUforkKernel(SmallConfig());
  ForkStats observed;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&observed](Guest& g) -> SimTask<void> {
        auto child_pid = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          co_await cg.Exit(0);
        });
        CO_ASSERT_TRUE(child_pid.ok());
        observed = g.kernel().FindUproc(*child_pid)->fork_stats;
        (void)co_await g.Wait();
      }),
      "stats");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_GT(observed.latency, 0u);
  EXPECT_GT(observed.pages_mapped, 100u);
  EXPECT_GT(observed.pages_copied_eagerly, 0u) << "GOT + allocator metadata proactive copies";
  EXPECT_GT(observed.caps_relocated_eagerly, 0u) << "allocator bump/free caps + GOT entries";
  EXPECT_GT(observed.registers_relocated, 0u) << "DDC/PCC/CSP at minimum";
}

}  // namespace
}  // namespace ufork
