// Overload-control matrix (DESIGN.md §4.10): frame-pool watermark hysteresis, EAGAIN
// admission rejection, and per-tenant frame caps.
//
// The watermark tests drive the free-frame count directly (FrameAllocator::Allocate/Release
// from the test body) so every threshold crossing is exact, then probe the controller through
// real fork/spawn syscalls. The controller is armed at runtime via admission().Configure()
// with watermarks derived from the measured steady-state free count — the same calibration
// pattern bench_overload uses.
#include <gtest/gtest.h>

#include <vector>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
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

struct System {
  const char* name;
  std::unique_ptr<Kernel> (*make)(KernelConfig config);
};

const System kSystems[] = {
    {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
    {"mas", [](KernelConfig c) { return MakeMasKernel(c, MasParams{}); }},
    {"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c, VmCloneParams{}); }},
};

SimTask<void> TrivialChild(Guest& cg) { co_await cg.Exit(0); }

// --- watermark hysteresis ----------------------------------------------------------------------

TEST(Overload, WatermarkHysteresisRejectsBelowLowAndRecoversOnlyAboveClear) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(TinyConfig());
    kernel->procs().RegisterProgram("worker", MakeGuestEntry([](Guest& g) -> SimTask<void> {
                              co_await g.Exit(7);
                            }));
    auto pid = kernel->Spawn(
        MakeGuestEntry([](Guest& g) -> SimTask<void> {
          Kernel& k = g.kernel();
          FrameAllocator& fr = k.machine().frames();
          const uint64_t free0 = fr.free_frames();

          OverloadConfig oc;
          oc.enabled = true;
          oc.low_watermark = free0 - 6;
          oc.clear_watermark = free0 - 2;
          k.admission().Configure(oc);

          // Above the low watermark: fork and spawn are admitted.
          auto ok_fork = co_await g.Fork(TrivialChild);
          CO_ASSERT_OK(ok_fork);
          CO_ASSERT_OK(co_await g.Wait());

          // Pin 8 frames: free drops below low → REJECTING, both fork and spawn EAGAIN.
          std::vector<FrameId> held;
          for (int i = 0; i < 8; ++i) {
            auto frame = fr.Allocate();
            CO_ASSERT_OK(frame);
            held.push_back(*frame);
          }
          auto rejected_fork = co_await g.Fork(TrivialChild);
          CO_ASSERT_EQ(rejected_fork.code(), Code::kErrAgain);
          auto rejected_spawn = co_await g.SpawnProgram("worker");
          CO_ASSERT_EQ(rejected_spawn.code(), Code::kErrAgain);
          CO_ASSERT_TRUE(k.admission().rejecting());
          CO_ASSERT_EQ(k.stats().admission_trips, 1u);
          CO_ASSERT_EQ(k.stats().admission_rejected, 2u);

          // Hysteresis: back above low but still below clear — REJECTING holds, and the
          // trip counter must not move (no flapping at the threshold).
          for (int i = 0; i < 4; ++i) {
            fr.Release(held.back());
            held.pop_back();
          }
          auto still_rejected = co_await g.Fork(TrivialChild);
          CO_ASSERT_EQ(still_rejected.code(), Code::kErrAgain);
          CO_ASSERT_EQ(k.stats().admission_trips, 1u);
          CO_ASSERT_EQ(k.stats().admission_rejected, 3u);

          // At the clear watermark: admission recovers; the identical fork succeeds.
          for (int i = 0; i < 2; ++i) {
            fr.Release(held.back());
            held.pop_back();
          }
          auto admitted = co_await g.Fork(TrivialChild);
          CO_ASSERT_OK(admitted);
          CO_ASSERT_OK(co_await g.Wait());
          CO_ASSERT_TRUE(!k.admission().rejecting());
          CO_ASSERT_EQ(k.stats().admission_trips, 1u);
          for (const FrameId frame : held) {
            fr.Release(frame);
          }
        }),
        "hysteresis");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    // Rejected creations never reached the fork backend.
    EXPECT_EQ(kernel->stats().forks, 2u);
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

// --- per-tenant frame caps ---------------------------------------------------------------------

TEST(Overload, TenantCapContainsAFrameHogAndTeardownReturnsEveryFrame) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    KernelConfig config = TinyConfig();
    config.check_frame_invariants = true;  // tenant billing must not disturb the accounting
    auto kernel = system.make(config);
    auto pid = kernel->Spawn(
        MakeGuestEntry([](Guest& g) -> SimTask<void> {
          Kernel& k = g.kernel();
          FrameAllocator& fr = k.machine().frames();
          fr.SetTenantCap(/*tenant=*/7, /*max_frames=*/8);

          auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
            cg.SetTenant(7);
            FrameAllocator& cfr = cg.kernel().machine().frames();
            // 16 pages cannot fit under an 8-frame cap: ENOMEM, all-or-nothing.
            auto area = co_await cg.MmapAnon(16 * kPageSize);
            CO_ASSERT_EQ(area.code(), Code::kErrNoMem);
            CO_ASSERT_TRUE(cfr.TenantFrames(7) <= 8);
            // A request that fits the remaining budget still succeeds.
            auto small = co_await cg.MmapAnon(2 * kPageSize);
            CO_ASSERT_OK(small);
            CO_ASSERT_OK(cg.Store<uint64_t>(*small, small->base(), 0xFEED));
            co_await cg.Exit(0);
          });
          CO_ASSERT_OK(child);
          auto waited = co_await g.Wait();
          CO_ASSERT_OK(waited);
          CO_ASSERT_EQ(waited->status, 0);

          CO_ASSERT_TRUE(fr.tenant_cap_rejections() >= 1);
          // Teardown handed back every frame the tenant was ever billed for.
          CO_ASSERT_EQ(fr.TenantFrames(7), 0u);
          // The system tenant (the parent) was never throttled.
          auto mine = co_await g.MmapAnon(4 * kPageSize);
          CO_ASSERT_OK(mine);
        }),
        "tenant-cap");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
    EXPECT_EQ(kernel->LivePids().size(), 0u);
    EXPECT_TRUE(kernel->CheckFrameAccounting().ok());
  }
}

}  // namespace
}  // namespace ufork
