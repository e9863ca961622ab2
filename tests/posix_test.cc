// Tests for the POSIX surface added for fork support (§4.5): signals, shared memory (§3.7),
// exec and posix_spawn (U1 / Table 1's "f+e" column).
#include <gtest/gtest.h>

#include "src/apps/unixbench.h"
#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

KernelConfig SmallConfig() {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  config.layout.mmap_size = 512 * kKiB;
  return config;
}

// --- signals -------------------------------------------------------------------------------

TEST(Signals, HandlerRunsAtDeliveryPoint) {
  auto kernel = MakeUforkKernel(SmallConfig());
  int handled_signal = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&handled_signal](Guest& g) -> SimTask<void> {
        CO_ASSERT_OK(co_await g.Sigaction(
            kSigUsr1, [&handled_signal](Guest&, int sig) -> SimTask<void> {
              handled_signal = sig;
              co_return;
            }));
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          auto ppid = co_await cg.GetPPid();
          CO_ASSERT_OK(ppid);
          CO_ASSERT_OK(co_await cg.Kill(*ppid, kSigUsr1));
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();  // delivery point: handler runs before/within the wait
        CO_ASSERT_OK(co_await g.CheckSignals());
      }),
      "sig");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(handled_signal, kSigUsr1);
}

TEST(Signals, DefaultActionTerminates) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          // Park; SIGTERM arrives and the default action terminates at the delivery point.
          for (;;) {
            co_await cg.Nanosleep(Microseconds(50));
          }
        });
        CO_ASSERT_OK(child);
        co_await g.Nanosleep(Microseconds(10));
        CO_ASSERT_OK(co_await g.Kill(*child, kSigTerm));
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, 128 + kSigTerm);
      }),
      "sigterm");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Signals, SigchldIsIgnoredByDefaultAndHandlerFires) {
  auto kernel = MakeUforkKernel(SmallConfig());
  int chld_count = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&chld_count](Guest& g) -> SimTask<void> {
        // First child: default disposition (ignore) — parent must not terminate.
        auto c1 = co_await g.Fork([](Guest& cg) -> SimTask<void> { co_await cg.Exit(0); });
        CO_ASSERT_OK(c1);
        (void)co_await g.Wait();
        // Handler installed: SIGCHLD from the second child must invoke it.
        CO_ASSERT_OK(co_await g.Sigaction(kSigChld,
                                          [&chld_count](Guest&, int) -> SimTask<void> {
                                            ++chld_count;
                                            co_return;
                                          }));
        auto c2 = co_await g.Fork([](Guest& cg) -> SimTask<void> { co_await cg.Exit(0); });
        CO_ASSERT_OK(c2);
        (void)co_await g.Wait();
        CO_ASSERT_OK(co_await g.CheckSignals());
      }),
      "sigchld");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_GE(chld_count, 1);
}

TEST(Signals, DispositionsInheritedPendingCleared) {
  auto kernel = MakeUforkKernel(SmallConfig());
  bool child_handler_ran = false;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&child_handler_ran](Guest& g) -> SimTask<void> {
        CO_ASSERT_OK(co_await g.Sigaction(
            kSigUsr2, [&child_handler_ran](Guest& hg, int) -> SimTask<void> {
              // Identify which process runs the handler: fork children have a fresh pid.
              auto self = co_await hg.GetPid();
              CO_ASSERT_OK(self);
              if (*self != 1) {
                child_handler_ran = true;
              }
            }));
        // Raise on self but do NOT deliver before forking: the child must start with a
        // clean pending set; the disposition (handler) is inherited.
        CO_ASSERT_OK(co_await g.Kill(1, kSigUsr2));
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          CO_ASSERT_OK(co_await cg.CheckSignals());  // nothing pending here
          auto self = co_await cg.GetPid();
          CO_ASSERT_OK(self);
          // Send to self and deliver: the inherited handler must run in the child.
          CO_ASSERT_OK(co_await cg.Kill(*self, kSigUsr2));
          CO_ASSERT_OK(co_await cg.CheckSignals());
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
        CO_ASSERT_OK(co_await g.CheckSignals());  // parent's own pending USR2 delivered here
      }),
      "inherit");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_TRUE(child_handler_ran);
}

// --- shared memory -------------------------------------------------------------------------

TEST(Shm, CrossProcessCommunication) {
  auto kernel = MakeUforkKernel(SmallConfig());
  uint64_t parent_read = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&parent_read](Guest& g) -> SimTask<void> {
        auto shm = co_await g.ShmOpen("/shm/ring", 2 * kPageSize);
        CO_ASSERT_OK(shm);
        auto window = co_await g.ShmMap(*shm);
        CO_ASSERT_OK(window);
        EXPECT_EQ(window->length(), 2 * kPageSize);
        CO_ASSERT_OK(g.Store<uint64_t>(*window, window->base(), 1));

        auto pipe = co_await g.Pipe();
        CO_ASSERT_OK(pipe);
        const auto [rfd, wfd] = *pipe;
        auto child = co_await g.Fork([shm_id = *shm, wfd = wfd](Guest& cg) -> SimTask<void> {
          // The inherited window is at the same offset in the child's region AND references
          // the same physical frames (kPteShared exempts it from CoW). Map a second window to
          // prove the object is name/id-reachable too.
          auto window2 = co_await cg.ShmMap(shm_id);
          CO_ASSERT_OK(window2);
          auto v = cg.Load<uint64_t>(*window2, window2->base());
          CO_ASSERT_OK(v);
          EXPECT_EQ(*v, 1u) << "writes before fork must be visible";
          CO_ASSERT_OK(cg.Store<uint64_t>(*window2, window2->base() + 8, 0xfeed));
          auto byte = cg.Malloc(16);
          CO_ASSERT_OK(byte);
          CO_ASSERT_OK(co_await cg.Write(wfd, *byte, 1));
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        auto byte = g.Malloc(16);
        CO_ASSERT_OK(byte);
        CO_ASSERT_OK(co_await g.Read(rfd, *byte, 1));  // child wrote to the shared window
        auto v = g.Load<uint64_t>(*window, window->base() + 8);
        CO_ASSERT_OK(v);
        parent_read = *v;
        (void)co_await g.Wait();
      }),
      "shm");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(parent_read, 0xfeedu) << "child writes through MAP_SHARED must be visible";
}

TEST(Shm, NoCapabilityLaunderingThroughSharedMemory) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto shm = co_await g.ShmOpen("/shm/x", kPageSize);
        CO_ASSERT_OK(shm);
        auto window = co_await g.ShmMap(*shm);
        CO_ASSERT_OK(window);
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        // Storing a tagged capability through the window must fault: the window lacks
        // StoreCap (capabilities cannot cross μprocess boundaries via shm, §4.3).
        EXPECT_EQ(g.StoreCap(*window, window->base(), *block).code(),
                  Code::kFaultPermission);
        co_return;
      }),
      "launder");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Shm, UnlinkKeepsLiveMappings) {
  auto kernel = MakeUforkKernel(SmallConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto shm = co_await g.ShmOpen("/shm/tmp", kPageSize);
        CO_ASSERT_OK(shm);
        auto window = co_await g.ShmMap(*shm);
        CO_ASSERT_OK(window);
        CO_ASSERT_OK(g.Store<uint64_t>(*window, window->base(), 9));
        CO_ASSERT_OK(co_await g.ShmUnlink("/shm/tmp"));
        // POSIX: the mapping survives unlink.
        auto v = g.Load<uint64_t>(*window, window->base());
        CO_ASSERT_OK(v);
        EXPECT_EQ(*v, 9u);
        // But the name is gone.
        EXPECT_EQ((co_await g.ShmUnlink("/shm/tmp")).code(), Code::kErrNoEnt);
        co_return;
      }),
      "unlink");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

// --- exec / spawn --------------------------------------------------------------------------

TEST(Exec, ReplacesImagePreservingPidAndFds) {
  auto kernel = MakeUforkKernel(SmallConfig());
  Pid exec_pid = 0;
  kernel->procs().RegisterProgram("worker", MakeGuestEntry([&exec_pid](Guest& g) -> SimTask<void> {
    auto self = co_await g.GetPid();
    CO_ASSERT_OK(self);
    exec_pid = *self;
    // The descriptor opened before exec is still valid.
    auto msg = g.PlaceString("from-exec");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(3, *msg, 9));
    co_await g.Exit(5);
  }));
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          // U1: fork + exec. Arrange fd 3 to carry output across the exec.
          auto fd = co_await cg.Open("/exec-out", kOpenWrite | kOpenCreate);
          CO_ASSERT_OK(fd);
          CO_ASSERT_OK(co_await cg.Dup2(*fd, 3));
          auto failed = co_await cg.Exec("no-such-program");
          EXPECT_EQ(failed.code(), Code::kErrNoEnt);
          (void)co_await cg.Exec("worker");  // never returns on success
          ADD_FAILURE() << "exec must not return on success";
          co_await cg.Exit(1);
        });
        CO_ASSERT_OK(child);
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, 5);
        auto size = co_await g.FileSize("/exec-out");
        CO_ASSERT_OK(size);
        EXPECT_EQ(*size, 9u);
      }),
      "forkexec");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_GT(exec_pid, 1) << "exec preserves the forked child's PID";
}

TEST(Spawn, PosixSpawnIsAForklessChild) {
  auto kernel = MakeUforkKernel(SmallConfig());
  kernel->procs().RegisterProgram("echo", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    co_await g.Exit(11);
  }));
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        // Dirty some parent heap: a spawned child must NOT inherit it (fresh image).
        auto block = g.Malloc(64);
        CO_ASSERT_OK(block);
        auto child = co_await g.SpawnProgram("echo");
        CO_ASSERT_OK(child);
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->pid, *child);
        EXPECT_EQ(waited->status, 11);
        EXPECT_EQ(g.kernel().stats().forks, 0u) << "spawn is not a fork";
      }),
      "spawner");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(Spawn, CheaperThanForkForLargeImages) {
  // Table 1's point about "f+e only" systems: posix_spawn avoids duplicating parent state, so
  // with a big dirty heap spawn should be far cheaper than fork+exec.
  KernelConfig config;
  config.layout.heap_size = 32 * kMiB;
  auto kernel = MakeUforkKernel(config);
  kernel->procs().RegisterProgram("noop", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    co_await g.Exit(0);
  }));
  Cycles spawn_cost = 0;
  Cycles fork_cost = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&spawn_cost, &fork_cost](Guest& g) -> SimTask<void> {
        // End-to-end cost: request to reaped child (the exec half runs in the child, so the
        // fork() call alone would undercount).
        Scheduler& sched = g.kernel().sched();
        Cycles t0 = sched.Now();
        auto spawned = co_await g.SpawnProgram("noop");
        CO_ASSERT_OK(spawned);
        (void)co_await g.Wait();
        spawn_cost = sched.Now() - t0;
        t0 = sched.Now();
        auto forked = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          (void)co_await cg.Exec("noop");
          co_await cg.Exit(1);
        });
        CO_ASSERT_OK(forked);
        (void)co_await g.Wait();
        fork_cost = sched.Now() - t0;
      }),
      "compare");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_GT(spawn_cost, 0u);
  EXPECT_GT(fork_cost, 0u);
  // fork must duplicate ~32 MB of PTEs; spawn only builds a fresh image.
  EXPECT_LT(spawn_cost, fork_cost);
}

TEST(Exec, ExeclChainReplacesImageRepeatedly) {
  auto kernel = MakeUforkKernel(SmallConfig());
  RegisterExeclHop(*kernel);
  ExeclResult result;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&result](Guest& g) -> SimTask<void> {
        co_await UnixbenchExecl(g, 20, &result);
      }),
      "execl");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(result.iterations, 20u);
  EXPECT_GT(result.PerExecUs(), 0.0);
  EXPECT_EQ(kernel->stats().forks, 1u) << "one fork, then a chain of execs";
}

}  // namespace
}  // namespace ufork
