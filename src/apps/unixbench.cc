#include "src/apps/unixbench.h"

namespace ufork {

SimTask<void> UnixbenchSpawn(Guest& g, uint64_t iterations, SpawnResult* result) {
  Scheduler& sched = g.kernel().sched();
  const Cycles start = sched.Now();
  for (uint64_t i = 0; i < iterations; ++i) {
    auto child = co_await g.Fork([](Guest& cg) -> SimTask<void> {
      co_await cg.Exit(0);
    });
    UF_CHECK_MSG(child.ok(), "spawn benchmark fork failed");
    auto waited = co_await g.Wait();
    UF_CHECK(waited.ok() && waited->pid == *child);
  }
  result->iterations = iterations;
  result->elapsed = sched.Now() - start;
}

SimTask<void> UnixbenchContext1(Guest& g, uint64_t target, Context1Result* result) {
  Scheduler& sched = g.kernel().sched();
  auto pipe_down = co_await g.Pipe();  // parent -> child
  auto pipe_up = co_await g.Pipe();    // child -> parent
  UF_CHECK(pipe_down.ok() && pipe_up.ok());
  const auto [down_r, down_w] = *pipe_down;
  const auto [up_r, up_w] = *pipe_up;

  GuestFn child_fn = [down_r = down_r, down_w = down_w, up_r = up_r, up_w = up_w,
                      target](Guest& cg) -> SimTask<void> {
        // Close the inherited ends this side does not use, so EOF propagates (classic
        // fork+pipe hygiene).
        (void)co_await cg.Close(down_w);
        (void)co_await cg.Close(up_r);
        auto buf = cg.Malloc(8);
        UF_CHECK(buf.ok());
        for (;;) {
          auto n = co_await cg.Read(down_r, *buf, 8);
          if (!n.ok() || *n == 0) {
            break;
          }
          auto v = cg.LoadAt<uint64_t>(*buf, 0);
          UF_CHECK(v.ok());
          if (*v >= target) {
            break;
          }
          UF_CHECK(cg.StoreAt<uint64_t>(*buf, 0, *v + 1).ok());
          UF_CHECK((co_await cg.Write(up_w, *buf, 8)).ok());
        }
        co_await cg.Exit(0);
      };
  auto child = co_await g.Fork(std::move(child_fn));
  UF_CHECK(child.ok());

  const Cycles start = sched.Now();
  auto buf = g.Malloc(8);
  UF_CHECK(buf.ok());
  uint64_t counter = 0;
  uint64_t round_trips = 0;
  while (counter < target) {
    UF_CHECK(g.StoreAt<uint64_t>(*buf, 0, counter).ok());
    UF_CHECK((co_await g.Write(down_w, *buf, 8)).ok());
    if (counter + 1 >= target) {
      // The child observes >= target and exits without replying.
      counter = target;
      break;
    }
    auto n = co_await g.Read(up_r, *buf, 8);
    UF_CHECK(n.ok() && *n == 8);
    auto v = g.LoadAt<uint64_t>(*buf, 0);
    UF_CHECK(v.ok());
    counter = *v + 1;
    ++round_trips;
  }
  result->round_trips = round_trips;
  result->elapsed = sched.Now() - start;
  // Closing the downstream write end delivers EOF so the child exits.
  (void)co_await g.Close(down_w);
  (void)co_await g.Wait();
}

namespace {

// The execl benchmark bounces between two roles through a counter file: each exec'd image
// decrements the remaining count and execs itself again, ending by exiting with 0.
constexpr const char* kExeclCounterPath = "/unixbench/execl.counter";

SimTask<Result<uint64_t>> LoadExeclCounter(Guest& g) {
  auto fd = co_await g.Open(kExeclCounterPath, kOpenRead);
  if (!fd.ok()) {
    co_return fd.error();
  }
  auto buf = g.Malloc(16);
  if (!buf.ok()) {
    co_return buf.error();
  }
  auto n = co_await g.Read(*fd, *buf, 8);
  if (!n.ok()) {
    co_return n.error();
  }
  (void)co_await g.Close(*fd);
  co_return g.LoadAt<uint64_t>(*buf, 0);
}

SimTask<Result<void>> StoreExeclCounter(Guest& g, uint64_t value) {
  auto fd = co_await g.Open(kExeclCounterPath, kOpenWrite | kOpenCreate | kOpenTrunc);
  if (!fd.ok()) {
    co_return fd.error();
  }
  auto buf = g.Malloc(16);
  if (!buf.ok()) {
    co_return buf.error();
  }
  UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*buf, 0, value));
  auto n = co_await g.Write(*fd, *buf, 8);
  if (!n.ok()) {
    co_return n.error();
  }
  co_return co_await g.Close(*fd);
}

}  // namespace

void RegisterExeclHop(Kernel& kernel) {
  kernel.procs().RegisterProgram("execl-hop", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto remaining = co_await LoadExeclCounter(g);
    UF_CHECK(remaining.ok());
    if (*remaining == 0) {
      co_await g.Exit(0);
    }
    UF_CHECK((co_await StoreExeclCounter(g, *remaining - 1)).ok());
    (void)co_await g.Exec("execl-hop");
    co_await g.Exit(1);  // unreachable on success
  }));
}

SimTask<void> UnixbenchExecl(Guest& g, uint64_t iterations, ExeclResult* result) {
  Scheduler& sched = g.kernel().sched();
  UF_CHECK((co_await StoreExeclCounter(g, iterations)).ok());
  const Cycles start = sched.Now();
  GuestFn hop = [](Guest& cg) -> SimTask<void> {
    (void)co_await cg.Exec("execl-hop");
    co_await cg.Exit(1);
  };
  auto child = co_await g.Fork(std::move(hop));
  UF_CHECK(child.ok());
  auto waited = co_await g.Wait();
  UF_CHECK(waited.ok() && waited->status == 0);
  result->iterations = iterations;
  result->elapsed = sched.Now() - start;
}

}  // namespace ufork
