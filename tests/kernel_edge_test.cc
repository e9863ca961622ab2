// Edge-case interactions between subsystems: mmap across fork, exec with live children,
// kill-while-blocked resource cleanup, and fd inheritance of message queues.
#include <gtest/gtest.h>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

KernelConfig EdgeConfig() {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  config.layout.mmap_size = 512 * kKiB;
  return config;
}

TEST(KernelEdge, MmapMemoryIsCowSharedAndRelocatedAcrossFork) {
  auto kernel = MakeUforkKernel(EdgeConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto window = co_await g.MmapAnon(8 * kKiB);
        CO_ASSERT_OK(window);
        // Plant data AND a capability in the mmap'd area.
        CO_ASSERT_OK(g.Store<uint64_t>(*window, window->base(), 555));
        auto block = g.Malloc(32);
        CO_ASSERT_OK(block);
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*block, 0, 666));
        CO_ASSERT_OK(g.StoreCap(*window, window->base() + 16, *block));
        const uint64_t window_off = window->base() - g.base();
        auto child = co_await g.Fork([window_off](Guest& cg) -> SimTask<void> {
          const uint64_t child_window = cg.base() + window_off;
          auto v = cg.Load<uint64_t>(cg.ddc(), child_window);
          CO_ASSERT_OK(v);
          EXPECT_EQ(*v, 555u);
          // The planted capability relocates into the child (CoPA on the mmap page).
          auto cap = cg.LoadCap(cg.ddc(), child_window + 16);
          CO_ASSERT_OK(cap);
          CO_ASSERT_TRUE(cap->tag());
          EXPECT_GE(cap->base(), cg.base());
          auto inner = cg.LoadAt<uint64_t>(*cap, 0);
          CO_ASSERT_OK(inner);
          EXPECT_EQ(*inner, 666u);
          // The child can keep mmapping: its cursor was inherited relative to its region.
          auto more = co_await cg.MmapAnon(4 * kKiB);
          CO_ASSERT_OK(more);
          EXPECT_GE(more->base(), cg.base());
          EXPECT_LT(more->top(), cg.base() + cg.uproc().size);
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, 0);
      }),
      "mmap-fork");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(KernelEdge, ExecKeepsChildrenWaitable) {
  auto kernel = MakeUforkKernel(EdgeConfig());
  kernel->procs().RegisterProgram("waiter", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    // The exec'd image inherits the pre-exec child and can still reap it.
    auto waited = co_await g.Wait();
    UF_CHECK(waited.ok());
    co_await g.Exit(waited->status == 33 ? 0 : 1);
  }));
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto outer = co_await g.Fork([](Guest& og) -> SimTask<void> {
          auto inner = co_await og.Fork([](Guest& ig) -> SimTask<void> {
            co_await ig.Nanosleep(Microseconds(100));
            co_await ig.Exit(33);
          });
          CO_ASSERT_OK(inner);
          (void)co_await og.Exec("waiter");  // replaces the image, keeps the child
          co_await og.Exit(9);
        });
        CO_ASSERT_OK(outer);
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, 0) << "the exec'd waiter must reap the pre-exec child";
      }),
      "exec-children");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(KernelEdge, KillingBlockedReaderDeliversEpipeSemantics) {
  auto kernel = MakeUforkKernel(EdgeConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto pipe_fds = co_await g.Pipe();
        CO_ASSERT_OK(pipe_fds);
        const auto [rfd, wfd] = *pipe_fds;
        auto child = co_await g.Fork([rfd = rfd, wfd = wfd](Guest& cg) -> SimTask<void> {
          (void)co_await cg.Close(wfd);
          auto buf = cg.Malloc(16);
          CO_ASSERT_OK(buf);
          (void)co_await cg.Read(rfd, *buf, 1);  // blocks forever; killed here
          ADD_FAILURE() << "the killed reader must never resume";
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Close(rfd);
        co_await g.Nanosleep(Microseconds(10));  // let the child block
        CO_ASSERT_OK(co_await g.Kill(*child));
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, -9);
        // The kill closed the child's read end — our write end now has no readers: EPIPE.
        auto buf = g.Malloc(16);
        CO_ASSERT_OK(buf);
        auto written = co_await g.Write(wfd, *buf, 1);
        EXPECT_EQ(written.code(), Code::kErrPipe);
      }),
      "kill-blocked");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST(KernelEdge, MqDescriptorsInheritedAcrossForkAndExec) {
  auto kernel = MakeUforkKernel(EdgeConfig());
  kernel->procs().RegisterProgram("mq-writer", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    // fd 0 was arranged (pre-exec) to be the queue.
    auto msg = g.PlaceString("Q");
    UF_CHECK(msg.ok());
    auto n = co_await g.Write(0, *msg, 1);
    co_await g.Exit(n.ok() ? 0 : 1);
  }));
  std::string received;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&received](Guest& g) -> SimTask<void> {
        auto mq = co_await g.MqOpen("/mq/inherit", true);
        CO_ASSERT_OK(mq);
        auto child = co_await g.Fork([mq = *mq](Guest& cg) -> SimTask<void> {
          UF_CHECK((co_await cg.Dup2(mq, 0)).ok());
          (void)co_await cg.Exec("mq-writer");
          co_await cg.Exit(1);
        });
        CO_ASSERT_OK(child);
        auto buf = g.Malloc(16);
        CO_ASSERT_OK(buf);
        auto n = co_await g.Read(*mq, *buf, 16);  // message queues carry across fork+exec
        CO_ASSERT_OK(n);
        auto bytes = g.FetchBytes(*buf, 1);
        CO_ASSERT_OK(bytes);
        received.assign(reinterpret_cast<const char*>(bytes->data()), 1);
        (void)co_await g.Wait();
      }),
      "mq-inherit");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(received, "Q");
}

TEST(KernelEdge, MmapZoneIsPerProcess) {
  auto kernel = MakeUforkKernel(EdgeConfig());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        auto a = co_await g.MmapAnon(16 * kKiB);
        CO_ASSERT_OK(a);
        auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
          // The child's fresh mappings land in the CHILD's zone, disjoint from everything
          // the parent maps afterwards.
          auto b = co_await cg.MmapAnon(16 * kKiB);
          CO_ASSERT_OK(b);
          EXPECT_GE(b->base(), cg.base());
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        auto c = co_await g.MmapAnon(16 * kKiB);
        CO_ASSERT_OK(c);
        EXPECT_GE(c->base(), a->top());
        EXPECT_LT(c->top(), g.base() + g.uproc().size);
        (void)co_await g.Wait();
      }),
      "mmap-zones");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

}  // namespace
}  // namespace ufork
