// Isolation demo: the attack vectors of the paper's threat model (§3.3) and how the
// CHERI-based design stops each one — plus what happens when you deliberately turn the
// protections off (R4: parameterized isolation).
//
//   $ ./isolation_demo
#include <cstdio>

#include "src/baseline/system.h"
#include "src/guest/guest.h"

using namespace ufork;

namespace {

KernelConfig DemoConfig(ForkStrategy strategy = ForkStrategy::kCopa) {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  config.strategy = strategy;
  return config;
}

void DirectAddressingAttack() {
  std::printf("1. Direct addressing (§3.3): child dereferences an address in the parent's "
              "region.\n");
  auto kernel = MakeUforkKernel(DemoConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto secret = g.Malloc(16);
        UF_CHECK(secret.ok());
        UF_CHECK(g.StoreAt<uint64_t>(*secret, 0, 0x5ec12e7).ok());
        const uint64_t secret_va = secret->base();
        auto child = co_await g.Fork([secret_va](Guest& cg) -> SimTask<void> {
          auto stolen = cg.Load<uint64_t>(cg.ddc(), secret_va);
          std::printf("   child load of parent VA 0x%lx -> %s\n", secret_va,
                      CodeName(stolen.code()));
          UF_CHECK(!stolen.ok());  // DDC bounds stop it
          co_await cg.Exit(0);
        });
        UF_CHECK(child.ok());
        (void)co_await g.Wait();
      }),
      "attack1");
  UF_CHECK(pid.ok());
  kernel->Run();
}

void CapabilityForgeryAttack() {
  std::printf("2. Capability forgery: widen bounds / fabricate a pointer from an integer.\n");
  auto kernel = MakeUforkKernel(DemoConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto block = g.Malloc(64);
        UF_CHECK(block.ok());
        const Capability widened = block->WithBounds(block->base(), 1 * kMiB);
        std::printf("   widening a 64-byte capability to 1 MiB -> tag=%d (monotonicity)\n",
                    widened.tag());
        const Capability forged = Capability::Integer(g.base());
        auto deref = g.Load<uint64_t>(forged, g.base());
        std::printf("   dereferencing an integer 'pointer' -> %s (no tag, no authority)\n",
                    CodeName(deref.code()));
        co_return;
      }),
      "attack2");
  UF_CHECK(pid.ok());
  kernel->Run();
}

void PrivilegedInstructionAttack() {
  std::printf("3. Privileged instructions (§4.4): user code runs at EL1 but lacks the System "
              "permission.\n");
  auto kernel = MakeUforkKernel(DemoConfig());
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto attempt = co_await g.PrivilegedOp();
                             std::printf("   MSR-class operation from a μprocess -> %s\n",
                                         CodeName(attempt.code()));
                           }),
                           "attack3");
  UF_CHECK(pid.ok());
  kernel->Run();
}

void ConfusedDeputyAttack() {
  std::printf("4. Confused deputy (§4.4): pass a foreign buffer to the kernel.\n");
  auto kernel = MakeUforkKernel(DemoConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto fd = co_await g.Open("/out", kOpenWrite | kOpenCreate);
        UF_CHECK(fd.ok());
        const Capability foreign = Capability::Root(2 * kGiB, kPageSize, kPermAllData);
        auto written = co_await g.kernel().files().Write(g.uproc(), *fd, foreign, 2 * kGiB, 16);
        std::printf("   write(fd, <buffer outside my region>) -> %s\n",
                    CodeName(written.code()));
        co_return;
      }),
      "attack4");
  UF_CHECK(pid.ok());
  kernel->Run();
}

void StaleCapabilityWithUnsafeCow() {
  std::printf("5. Why CoPA exists (§3.8): classic CoW leaks stale parent capabilities.\n");
  for (const ForkStrategy strategy : {ForkStrategy::kUnsafeCow, ForkStrategy::kCopa}) {
    auto kernel = MakeUforkKernel(DemoConfig(strategy));
    auto pid = kernel->Spawn(
        MakeGuestEntry([strategy](Guest& g) -> SimTask<void> {
          auto target = g.Malloc(16);
          auto cell = g.Malloc(16);
          UF_CHECK(target.ok() && cell.ok());
          UF_CHECK(g.StoreCap(*cell, cell->base(), *target).ok());
          const uint64_t cell_off = cell->base() - g.base();
          auto child = co_await g.Fork([strategy, cell_off](Guest& cg) -> SimTask<void> {
            auto loaded = cg.LoadCap(cg.ddc(), cg.base() + cell_off);
            UF_CHECK(loaded.ok());
            const bool confined = loaded->base() >= cg.base() &&
                                  loaded->top() <= cg.base() + cg.uproc().size;
            std::printf("   %-10s child-loaded pointer is %s\n", ForkStrategyName(strategy),
                        confined ? "relocated into the child (confined)"
                                 : "STALE — it still targets the parent!");
            co_await cg.Exit(0);
          });
          UF_CHECK(child.ok());
          (void)co_await g.Wait();
        }),
        "attack5");
    UF_CHECK(pid.ok());
    kernel->Run();
  }
}

void IsolationDisabled() {
  std::printf("6. R4 — isolation can be disabled for trusted deployments "
              "(Redis-snapshot trust model, §3.6):\n");
  KernelConfig config = DemoConfig();
  config.isolation = IsolationLevel::kNone;
  auto kernel = MakeUforkKernel(config);
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto secret = g.Malloc(16);
        UF_CHECK(secret.ok());
        UF_CHECK(g.StoreAt<uint64_t>(*secret, 0, 99).ok());
        const uint64_t secret_va = secret->base();
        auto child = co_await g.Fork([secret_va](Guest& cg) -> SimTask<void> {
          auto peek = cg.Load<uint64_t>(cg.ddc(), secret_va);
          std::printf("   with isolation=none the child CAN read the parent: %s (value %lu)\n",
                      peek.ok() ? "OK" : CodeName(peek.code()), peek.ok() ? *peek : 0);
          co_await cg.Exit(0);
        });
        UF_CHECK(child.ok());
        (void)co_await g.Wait();
      }),
      "trusted");
  UF_CHECK(pid.ok());
  kernel->Run();
}

}  // namespace

int main() {
  std::printf("μFork isolation demo — each attack from the paper's threat model (§3.3):\n\n");
  DirectAddressingAttack();
  CapabilityForgeryAttack();
  PrivilegedInstructionAttack();
  ConfusedDeputyAttack();
  StaleCapabilityWithUnsafeCow();
  IsolationDisabled();
  return 0;
}
