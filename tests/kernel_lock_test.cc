// The kernel lock is the fork backend's choice: μFork and the VM clone, both Unikraft kernels
// (paper §4.5), serialize kernel sections on one big kernel lock, and the MAS baseline runs
// them lock-free. The same workloads must be correct on every system, the VirtualLock owner
// CHECKs must hold under two-core contention, and the per-syscall counters SyscallScope
// maintains must always sum to the kernel-wide syscall total.
#include <gtest/gtest.h>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "src/kernel/proc_report.h"
#include "src/kernel/syscall_table.h"
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
  return config;
}

struct System {
  const char* name;
  std::unique_ptr<Kernel> (*make)(KernelConfig config);
  const char* locks;  // the lock the reports name
};

const System kSystems[] = {
    {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }, "bkl"},
    {"mas", [](KernelConfig c) { return MakeMasKernel(c); }, "none"},
    {"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c); }, "bkl"},
};

uint64_t PerSyscallSum(const KernelStats& stats) {
  uint64_t sum = 0;
  for (const SyscallDesc& desc : SyscallTable()) {
    sum += stats.Count(desc.id);
  }
  return sum;
}

// Touches all three services: proc (fork/wait/exit), file (open/write/read/close) and ipc
// (pipe, shm, futex). The child signals the parent through a MAP_SHARED futex word and ships
// a byte through the pipe, so cross-service interleavings actually happen.
SimTask<void> CrossServiceWorkload(Guest& g) {
  auto fd = co_await g.Open("/services.txt", kOpenWrite | kOpenCreate);
  CO_ASSERT_OK(fd);
  auto line = g.PlaceString("service");
  CO_ASSERT_OK(line);
  CO_ASSERT_OK(co_await g.Write(*fd, *line, 7));
  CO_ASSERT_OK(co_await g.Close(*fd));

  auto shm = co_await g.ShmOpen("/shm/services", kPageSize);
  CO_ASSERT_OK(shm);
  auto window = co_await g.ShmMap(*shm);
  CO_ASSERT_OK(window);
  CO_ASSERT_OK(g.Store<uint64_t>(*window, window->base(), 0));

  auto pipe_fds = co_await g.Pipe();
  CO_ASSERT_OK(pipe_fds);
  const auto [rfd, wfd] = *pipe_fds;

  auto child = co_await g.Fork([shm_id = *shm, wfd = wfd](Guest& cg) -> SimTask<void> {
    auto w = co_await cg.ShmMap(shm_id);
    CO_ASSERT_OK(w);
    auto ping = cg.PlaceString("!");
    CO_ASSERT_OK(ping);
    CO_ASSERT_OK(co_await cg.Write(wfd, *ping, 1));
    // Give the parent time to reach its futex wait so the sleep/wake pair really happens.
    co_await cg.Nanosleep(Microseconds(50));
    CO_ASSERT_OK(cg.Store<uint64_t>(*w, w->base(), 1));
    (void)co_await cg.FutexWake(*w, w->base(), 1);
    co_await cg.Exit(42);
  });
  CO_ASSERT_OK(child);

  auto buf = g.Malloc(16);
  CO_ASSERT_OK(buf);
  auto got = co_await g.Read(rfd, *buf, 1);
  CO_ASSERT_OK(got);
  CO_ASSERT_EQ(*got, 1);
  for (;;) {
    auto v = g.Load<uint64_t>(*window, window->base());
    CO_ASSERT_OK(v);
    if (*v != 0) {
      break;
    }
    (void)co_await g.FutexWait(*window, window->base(), 0);
  }
  auto waited = co_await g.Wait();
  CO_ASSERT_OK(waited);
  CO_ASSERT_EQ(waited->status, 42);
  CO_ASSERT_OK(co_await g.Close(rfd));
  CO_ASSERT_OK(co_await g.Close(wfd));
}

std::unique_ptr<Kernel> RunWorkload(const System& system) {
  auto kernel = system.make(SmallConfig());
  auto pid = kernel->Spawn(MakeGuestEntry(CrossServiceWorkload), "services");
  UF_CHECK(pid.ok());
  kernel->Run();
  return kernel;
}

TEST(LockDomains, DefaultConfigKeepsTheBigKernelLock) {
  // Both Unikraft kernels take the BKL with no lock setting in KernelConfig.
  auto ufork = MakeUforkKernel(SmallConfig());
  ASSERT_NE(ufork->kernel_lock(), nullptr);
  EXPECT_FALSE(ufork->kernel_lock()->held());
  EXPECT_NE(MakeVmCloneKernel(SmallConfig())->kernel_lock(), nullptr);
}

TEST(LockDomains, MasBaselineMapsToUncontendedDomains) {
  // A MAS kernel has no kernel lock: its sections never wait on one another.
  auto kernel = MakeMasKernel(SmallConfig());
  EXPECT_EQ(kernel->kernel_lock(), nullptr);
  EXPECT_NE(SyscallTableReport(*kernel).find("locks=none)"), std::string::npos);
}

TEST(KernelLock, CrossServiceWorkloadIsCorrectOnEverySystem) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = RunWorkload(system);
    EXPECT_EQ(kernel->stats().forks, 1u);
    EXPECT_EQ(kernel->stats().exits, 2u);
    EXPECT_TRUE(kernel->LivePids().empty());
  }
}

TEST(KernelLock, PerSyscallCountersSumToKernelTotal) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = RunWorkload(system);
    const KernelStats& stats = kernel->stats();
    EXPECT_EQ(PerSyscallSum(stats), stats.syscalls);
    // The counts are identical on every system — locking changes when calls run, not what
    // runs. Spot-check the rows the workload exercises.
    EXPECT_EQ(stats.Count(Sys::kFork), 1u);
    EXPECT_EQ(stats.Count(Sys::kWait), 1u);
    EXPECT_EQ(stats.Count(Sys::kExit), 2u);
    EXPECT_EQ(stats.Count(Sys::kOpen), 1u);
    EXPECT_EQ(stats.Count(Sys::kPipe), 1u);
    EXPECT_EQ(stats.Count(Sys::kShmMap), 2u);
    EXPECT_GE(stats.Count(Sys::kFutexWait), 1u);
    // check_signals is a delivery point, not a kernel entry: never counted.
    EXPECT_EQ(stats.Count(Sys::kCheckSignals), 0u);
  }
}

TEST(KernelLock, SyscallTableReportEnumeratesEveryRow) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = RunWorkload(system);
    const std::string report = SyscallTableReport(*kernel);
    for (const SyscallDesc& desc : SyscallTable()) {
      EXPECT_NE(report.find(desc.name), std::string::npos) << desc.name;
    }
    EXPECT_NE(report.find(std::string("locks=") + system.locks + ")"), std::string::npos);
    EXPECT_NE(report.find("kernel syscalls="), std::string::npos);
  }
}

TEST(KernelLock, MultiprocessContentionStaysBalanced) {
  // Two unrelated process trees hammer different services concurrently on separate cores.
  // Any double-release or leaked acquire trips the VirtualLock owner CHECKs.
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    auto file_worker = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                                       for (int i = 0; i < 32; ++i) {
                                         auto fd = co_await g.Open(
                                             "/contend.txt", kOpenWrite | kOpenCreate);
                                         CO_ASSERT_OK(fd);
                                         auto b = g.PlaceString("x");
                                         CO_ASSERT_OK(b);
                                         CO_ASSERT_OK(co_await g.Write(*fd, *b, 1));
                                         CO_ASSERT_OK(co_await g.Close(*fd));
                                       }
                                     }),
                                     "file-worker", /*pinned_core=*/0);
    UF_CHECK(file_worker.ok());
    auto ipc_worker = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                                      for (int i = 0; i < 32; ++i) {
                                        auto pipe_fds = co_await g.Pipe();
                                        CO_ASSERT_OK(pipe_fds);
                                        CO_ASSERT_OK(co_await g.Close(pipe_fds->first));
                                        CO_ASSERT_OK(co_await g.Close(pipe_fds->second));
                                      }
                                    }),
                                    "ipc-worker", /*pinned_core=*/1);
    UF_CHECK(ipc_worker.ok());
    kernel->Run();
    EXPECT_EQ(kernel->stats().Count(Sys::kOpen), 32u);
    EXPECT_EQ(kernel->stats().Count(Sys::kPipe), 32u);
    EXPECT_EQ(kernel->stats().exits, 2u);
    if (VirtualLock* lock = kernel->kernel_lock()) {
      EXPECT_FALSE(lock->held());
      EXPECT_EQ(lock->waiters(), 0u);
    }
  }
}

}  // namespace
}  // namespace ufork
