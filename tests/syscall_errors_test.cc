// Syscall error-path matrix: the same POSIX error semantics must hold on all three systems
// (μFork, the CheriBSD-like MAS baseline, the VM-clone baseline), and — critically — every
// error return must leave the kernel lock discipline balanced. Before SyscallScope, each early
// return hand-released the BKL; an asymmetric path deadlocked the next syscall or tripped the
// VirtualLock owner CHECK. These tests walk every early-return branch on every system; the
// fact that each guest program completes proves release-exactly-once on all of them.
#include <gtest/gtest.h>

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

// Runs `fn` as the init program on each of the three systems.
void RunOnAllSystems(GuestFn fn) {
  for (const System& system : kSystems) {
    SCOPED_TRACE(system.name);
    auto kernel = system.make(SmallConfig());
    auto pid = kernel->Spawn(MakeGuestEntry(fn), "error-matrix");
    ASSERT_TRUE(pid.ok());
    kernel->Run();
  }
}

TEST(SyscallErrors, BadDescriptorReadWriteSeekClose) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    constexpr int kBogusFd = 17;
    auto read = co_await g.Read(kBogusFd, *buf, 8);
    CO_ASSERT_EQ(read.code(), Code::kErrBadFd);
    auto written = co_await g.Write(kBogusFd, *buf, 8);
    CO_ASSERT_EQ(written.code(), Code::kErrBadFd);
    auto sought = co_await g.Seek(kBogusFd, 0, 0);
    CO_ASSERT_EQ(sought.code(), Code::kErrBadFd);
    auto closed = co_await g.Close(kBogusFd);
    CO_ASSERT_EQ(closed.code(), Code::kErrBadFd);
    // The kernel survived four error returns with its lock discipline intact: a real syscall
    // still works.
    auto pid = co_await g.GetPid();
    CO_ASSERT_OK(pid);
  });
}

TEST(SyscallErrors, DoubleCloseReturnsBadFd) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/double-close", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await g.Close(*fd));
    auto again = co_await g.Close(*fd);
    CO_ASSERT_EQ(again.code(), Code::kErrBadFd);
  });
}

TEST(SyscallErrors, Dup2OntoSelfIsANoOpAndBadTargetsFail) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/dup2", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    // dup2(fd, fd) returns fd without disturbing the open file.
    auto self = co_await g.Dup2(*fd, *fd);
    CO_ASSERT_OK(self);
    CO_ASSERT_EQ(*self, *fd);
    auto line = g.PlaceString("still-open");
    CO_ASSERT_OK(line);
    auto written = co_await g.Write(*fd, *line, 10);
    CO_ASSERT_OK(written);
    CO_ASSERT_EQ(*written, 10);
    // Errors: closed/bogus source, out-of-range target.
    auto bad_old = co_await g.Dup2(17, 5);
    CO_ASSERT_EQ(bad_old.code(), Code::kErrBadFd);
    auto bad_new = co_await g.Dup2(*fd, -1);
    CO_ASSERT_EQ(bad_new.code(), Code::kErrBadFd);
    auto huge_new = co_await g.Dup2(*fd, 1 << 20);
    CO_ASSERT_EQ(huge_new.code(), Code::kErrBadFd);
    CO_ASSERT_OK(co_await g.Close(*fd));
  });
}

TEST(SyscallErrors, OpenReusesTheLowestFreeDescriptor) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    for (int expected = 0; expected < 3; ++expected) {
      auto fd = co_await g.Open("/lowest", kOpenWrite | kOpenCreate);
      CO_ASSERT_OK(fd);
      CO_ASSERT_EQ(*fd, expected);
    }
    CO_ASSERT_OK(co_await g.Close(1));
    auto reused = co_await g.Open("/lowest", kOpenWrite);
    CO_ASSERT_OK(reused);
    CO_ASSERT_EQ(*reused, 1);
    // Closing the highest descriptor and reopening hands the same one back; a descriptor
    // past the highest open one is EBADF.
    CO_ASSERT_OK(co_await g.Close(2));
    auto bogus = co_await g.Close(2);
    CO_ASSERT_EQ(bogus.code(), Code::kErrBadFd);
    auto top = co_await g.Open("/lowest", kOpenWrite);
    CO_ASSERT_OK(top);
    CO_ASSERT_EQ(*top, 2);
  });
}

TEST(SyscallErrors, Dup2ToTheLastDescriptorIsInheritedAcrossFork) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/last-fd", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto last = co_await g.Dup2(*fd, kMaxFds - 1);
    CO_ASSERT_OK(last);
    CO_ASSERT_EQ(*last, kMaxFds - 1);
    CO_ASSERT_OK(co_await g.Close(*fd));
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      auto line = cg.PlaceString("inherited");
      CO_ASSERT_OK(line);
      auto written = co_await cg.Write(kMaxFds - 1, *line, 9);
      CO_ASSERT_OK(written);
      // Slot 0 is free again in the inherited table.
      auto fresh = co_await cg.Open("/last-fd", kOpenRead);
      CO_ASSERT_OK(fresh);
      CO_ASSERT_EQ(*fresh, 0);
      co_await cg.Exit(0);
    });
    CO_ASSERT_OK(child);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    CO_ASSERT_EQ(waited->status, 0);
    auto size = co_await g.FileSize("/last-fd");
    CO_ASSERT_OK(size);
    CO_ASSERT_EQ(*size, 9u);
    CO_ASSERT_OK(co_await g.Close(kMaxFds - 1));
  });
}

TEST(SyscallErrors, OpenPastKMaxFdsIsEmfile) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    for (int expected = 0; expected < kMaxFds; ++expected) {
      auto fd = co_await g.Open("/many", kOpenWrite | kOpenCreate);
      CO_ASSERT_OK(fd);
      CO_ASSERT_EQ(*fd, expected);
    }
    auto full = co_await g.Open("/many", kOpenWrite);
    CO_ASSERT_EQ(full.code(), Code::kErrMfile);
    CO_ASSERT_OK(co_await g.Close(100));
    auto reused = co_await g.Open("/many", kOpenWrite);
    CO_ASSERT_OK(reused);
    CO_ASSERT_EQ(*reused, 100);
  });
}

TEST(SyscallErrors, WaitWithNoChildrenReturnsEchild) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto waited = co_await g.Wait();
    CO_ASSERT_EQ(waited.code(), Code::kErrChild);
    // And again: the ECHILD path must also release exactly once.
    auto again = co_await g.Wait();
    CO_ASSERT_EQ(again.code(), Code::kErrChild);
  });
}

TEST(SyscallErrors, ShmAndMqErrorPaths) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto zero = co_await g.ShmOpen("/shm/zero", 0);
    CO_ASSERT_EQ(zero.code(), Code::kErrInval);
    auto map = co_await g.ShmMap(12345);
    CO_ASSERT_EQ(map.code(), Code::kErrBadFd);
    auto unlink = co_await g.ShmUnlink("/shm/none");
    CO_ASSERT_EQ(unlink.code(), Code::kErrNoEnt);
    auto mq = co_await g.MqOpen("/mq/none", /*create=*/false);
    CO_ASSERT_TRUE(!mq.ok());
  });
}

TEST(SyscallErrors, MmapAnonZeroOrMisalignedLengthIsEinval) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    // POSIX: EINVAL for a zero or non-page-multiple length; ENOMEM is reserved for real
    // exhaustion of the zone. Must hold identically on all three systems.
    auto zero = co_await g.MmapAnon(0);
    CO_ASSERT_EQ(zero.code(), Code::kErrInval);
    auto crooked = co_await g.MmapAnon(kPageSize + 1);
    CO_ASSERT_EQ(crooked.code(), Code::kErrInval);
    auto sub_page = co_await g.MmapAnon(123);
    CO_ASSERT_EQ(sub_page.code(), Code::kErrInval);
    // The error returns left the lock discipline balanced: a well-formed request still works.
    auto ok = co_await g.MmapAnon(kPageSize);
    CO_ASSERT_OK(ok);
  });
}

TEST(SyscallErrors, MmapFileErrorPaths) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto zero = co_await g.MmapFile("/mmap-err", 0);
    CO_ASSERT_EQ(zero.code(), Code::kErrInval);
    auto crooked = co_await g.MmapFile("/mmap-err", kPageSize - 1);
    CO_ASSERT_EQ(crooked.code(), Code::kErrInval);
    auto missing = co_await g.MmapFile("/no-such-file", kPageSize);
    CO_ASSERT_EQ(missing.code(), Code::kErrNoEnt);
  });
}

TEST(SyscallErrors, SbrkErrorPaths) {
  RunOnAllSystems([](Guest& g) -> SimTask<void> {
    auto brk = co_await g.Sbrk(0);
    CO_ASSERT_OK(brk);
    // The break starts at the static heap top: any growth is ENOMEM (§4.2).
    auto grow = co_await g.Sbrk(kPageSize);
    CO_ASSERT_EQ(grow.code(), Code::kErrNoMem);
    // Shrinking below the allocator's root page is EINVAL.
    auto too_far = co_await g.Sbrk(-static_cast<int64_t>(512 * kMiB));
    CO_ASSERT_EQ(too_far.code(), Code::kErrInval);
    auto unchanged = co_await g.Sbrk(0);
    CO_ASSERT_OK(unchanged);
    CO_ASSERT_EQ(*unchanged, *brk);
  });
}

// --- fork exhaustion: the ghost-child regression ---------------------------------------------
//
// CreateUproc registers the child in the process table (and the parent's children list)
// before it allocates memory and the backend sweeps the parent's. A failed fork used to leave
// that shell behind as a permanently-kRunning ghost child, so the parent's subsequent wait()
// blocked forever. These tests would hang (and time out) without DestroyUprocShell on the
// failure paths.

TEST(SyscallErrors, UforkForkExhaustionLeavesNoGhostChild) {
  KernelConfig config = SmallConfig();
  // The image maps 86 pages; leave room for exactly one of fork's two proactive copies so the
  // second fails mid-fork, after the child shell exists.
  config.phys_mem_bytes = 87 * kPageSize;
  auto kernel = MakeUforkKernel(config);
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                               co_await cg.Exit(0);
                             });
                             CO_ASSERT_EQ(child.code(), Code::kErrNoMem);
                             auto waited = co_await g.Wait();
                             CO_ASSERT_EQ(waited.code(), Code::kErrChild);
                           }),
                           "ufork-oom");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(kernel->stats().forks, 0u);
  EXPECT_EQ(kernel->LivePids().size(), 0u) << "the failed fork must not leave a ghost child";
}

TEST(SyscallErrors, VmCloneForkExhaustionLeavesNoGhostChild) {
  KernelConfig config = SmallConfig();
  // The VM clone copies all 86 image pages synchronously; 100 frames fail the copy partway.
  config.phys_mem_bytes = 100 * kPageSize;
  auto kernel = MakeVmCloneKernel(config);
  auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                             auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
                               co_await cg.Exit(0);
                             });
                             CO_ASSERT_EQ(child.code(), Code::kErrNoMem);
                             auto waited = co_await g.Wait();
                             CO_ASSERT_EQ(waited.code(), Code::kErrChild);
                           }),
                           "vmclone-oom");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(kernel->stats().forks, 0u);
  EXPECT_EQ(kernel->LivePids().size(), 0u) << "the failed clone must not leave a ghost child";
}

}  // namespace
}  // namespace ufork
