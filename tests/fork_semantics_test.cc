// Parameterized fork-semantics suite: the POSIX behaviours transparency (R2) demands, swept
// across every (backend × copy strategy × isolation level) combination that claims to support
// them. One test body, many configurations — if any mechanism breaks a semantic, the matrix
// says exactly which one.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

#include "src/base/rng.h"

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

struct ForkConfig {
  const char* name;
  int backend;  // 0 = uFork, 1 = MAS, 2 = VM clone
  ForkStrategy strategy = ForkStrategy::kCopa;
  IsolationLevel isolation = IsolationLevel::kFull;
};

// gtest prints each parameter into the test's ctest name. Without a printer it dumps the
// struct's bytes, starting with the `name` pointer, so the names would change with every
// relink.
void PrintTo(const ForkConfig& fc, std::ostream* os) { *os << fc.name; }

std::unique_ptr<Kernel> MakeKernel(const ForkConfig& fc) {
  KernelConfig config;
  config.layout.heap_size = 2 * kMiB;
  config.strategy = fc.strategy;
  config.isolation = fc.isolation;
  switch (fc.backend) {
    case 0:
      return MakeUforkKernel(config);
    case 1:
      return MakeMasKernel(config);
    default:
      return MakeVmCloneKernel(config);
  }
}

class ForkSemanticsTest : public ::testing::TestWithParam<ForkConfig> {};

// The full sweep. UnsafeCoW is deliberately absent: it does not claim full semantics.
INSTANTIATE_TEST_SUITE_P(
    AllBackends, ForkSemanticsTest,
    ::testing::Values(
        ForkConfig{"uFork_CoPA_full", 0, ForkStrategy::kCopa, IsolationLevel::kFull},
        ForkConfig{"uFork_CoPA_fault", 0, ForkStrategy::kCopa, IsolationLevel::kFault},
        ForkConfig{"uFork_CoPA_none", 0, ForkStrategy::kCopa, IsolationLevel::kNone},
        ForkConfig{"uFork_CoA_full", 0, ForkStrategy::kCoa, IsolationLevel::kFull},
        ForkConfig{"uFork_Full_full", 0, ForkStrategy::kFull, IsolationLevel::kFull},
        ForkConfig{"MAS_full", 1, ForkStrategy::kCopa, IsolationLevel::kFull},
        ForkConfig{"VmClone_full", 2, ForkStrategy::kCopa, IsolationLevel::kFull}),
    [](const ::testing::TestParamInfo<ForkConfig>& param_info) { return param_info.param.name; });

TEST_P(ForkSemanticsTest, ChildSeesForkTimeSnapshotBidirectionalIsolation) {
  auto kernel = MakeKernel(GetParam());
  int checks = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&checks](Guest& g) -> SimTask<void> {
        // A spread of state: heap block, data-segment word, a pointer chain.
        auto a = g.Malloc(128);
        auto b = g.Malloc(128);
        CO_ASSERT_OK(a);
        CO_ASSERT_OK(b);
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*a, 0, 100));
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*b, 0, 200));
        CO_ASSERT_OK(g.StoreCap(*a, a->base() + 16, *b));  // a -> b chain
        CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *a));
        const uint64_t data_va = g.base() + g.layout().data_off();
        CO_ASSERT_OK(g.Store<uint64_t>(g.ddc(), data_va, 300));

        auto child = co_await g.Fork([&checks](Guest& cg) -> SimTask<void> {
          auto a_cap = cg.GotLoad(kGotSlotFirstUser);
          CO_ASSERT_OK(a_cap);
          auto v_a = cg.LoadAt<uint64_t>(*a_cap, 0);
          CO_ASSERT_OK(v_a);
          EXPECT_EQ(*v_a, 100u);
          // Follow the pointer chain: b must be reachable and correct in the child.
          auto b_cap = cg.LoadCap(*a_cap, a_cap->base() + 16);
          CO_ASSERT_OK(b_cap);
          CO_ASSERT_TRUE(b_cap->tag());
          auto v_b = cg.LoadAt<uint64_t>(*b_cap, 0);
          CO_ASSERT_OK(v_b);
          EXPECT_EQ(*v_b, 200u);
          auto v_data =
              cg.Load<uint64_t>(cg.ddc(), cg.base() + cg.layout().data_off());
          CO_ASSERT_OK(v_data);
          EXPECT_EQ(*v_data, 300u);
          // Mutate everything: none of it may reach the parent.
          CO_ASSERT_OK(cg.StoreAt<uint64_t>(*a_cap, 0, 111));
          CO_ASSERT_OK(cg.StoreAt<uint64_t>(*b_cap, 0, 222));
          CO_ASSERT_OK(
              cg.Store<uint64_t>(cg.ddc(), cg.base() + cg.layout().data_off(), 333));
          ++checks;
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        // Parent mutates too: none of it may reach the child (it already read, or reads the
        // fork-time values via CoW).
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*a, 0, 109));
        auto waited = co_await g.Wait();
        CO_ASSERT_OK(waited);
        EXPECT_EQ(waited->status, 0);
        auto v_a = g.LoadAt<uint64_t>(*a, 0);
        auto v_b = g.LoadAt<uint64_t>(*b, 0);
        auto v_data = g.Load<uint64_t>(g.ddc(), data_va);
        CO_ASSERT_OK(v_a);
        CO_ASSERT_OK(v_b);
        CO_ASSERT_OK(v_data);
        EXPECT_EQ(*v_a, 109u);   // parent's own write
        EXPECT_EQ(*v_b, 200u);   // untouched by child
        EXPECT_EQ(*v_data, 300u);
        ++checks;
      }),
      "semantics");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(checks, 2);
}

TEST_P(ForkSemanticsTest, WaitReturnsEachChildExactlyOnce) {
  auto kernel = MakeKernel(GetParam());
  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        std::vector<Pid> children;
        for (int i = 0; i < 4; ++i) {
          auto child = co_await g.Fork([i](Guest& cg) -> SimTask<void> {
            co_await cg.Exit(10 + i);
          });
          CO_ASSERT_OK(child);
          children.push_back(*child);
        }
        std::map<Pid, int> reaped;
        for (int i = 0; i < 4; ++i) {
          auto waited = co_await g.Wait();
          CO_ASSERT_OK(waited);
          EXPECT_EQ(reaped.count(waited->pid), 0u) << "double reap";
          reaped[waited->pid] = waited->status;
        }
        EXPECT_EQ(reaped.size(), 4u);
        for (size_t i = 0; i < children.size(); ++i) {
          CO_ASSERT_TRUE(reaped.count(children[i]) == 1);
          EXPECT_EQ(reaped[children[i]], 10 + static_cast<int>(i));
        }
        auto no_more = co_await g.Wait();
        EXPECT_EQ(no_more.code(), Code::kErrChild);
      }),
      "reaper");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

TEST_P(ForkSemanticsTest, PipeAndFdSemanticsAcrossFork) {
  auto kernel = MakeKernel(GetParam());
  std::string received;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&received](Guest& g) -> SimTask<void> {
        auto pipe_fds = co_await g.Pipe();
        CO_ASSERT_OK(pipe_fds);
        const auto [rfd, wfd] = *pipe_fds;
        auto child = co_await g.Fork([rfd = rfd, wfd = wfd](Guest& cg) -> SimTask<void> {
          (void)co_await cg.Close(rfd);
          auto msg = cg.PlaceString("ipc");
          CO_ASSERT_OK(msg);
          CO_ASSERT_OK(co_await cg.Write(wfd, *msg, 3));
          co_await cg.Exit(0);
        });
        CO_ASSERT_OK(child);
        CO_ASSERT_OK(co_await g.Close(wfd));
        auto buf = g.Malloc(16);
        CO_ASSERT_OK(buf);
        auto n = co_await g.Read(rfd, *buf, 16);
        CO_ASSERT_OK(n);
        CO_ASSERT_EQ(*n, 3);
        auto bytes = g.FetchBytes(*buf, 3);
        CO_ASSERT_OK(bytes);
        received.assign(reinterpret_cast<const char*>(bytes->data()), 3);
        auto eof = co_await g.Read(rfd, *buf, 16);
        CO_ASSERT_OK(eof);
        EXPECT_EQ(*eof, 0);
        (void)co_await g.Wait();
      }),
      "fds");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(received, "ipc");
}

TEST_P(ForkSemanticsTest, GrandchildrenChain) {
  auto kernel = MakeKernel(GetParam());
  uint64_t leaf_value = 0;
  auto pid = kernel->Spawn(
      MakeGuestEntry([&leaf_value](Guest& g) -> SimTask<void> {
        auto cell = g.Malloc(16);
        CO_ASSERT_OK(cell);
        CO_ASSERT_OK(g.StoreAt<uint64_t>(*cell, 0, 1));
        CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *cell));
        auto child = co_await g.Fork([&leaf_value](Guest& g1) -> SimTask<void> {
          auto cell1 = g1.GotLoad(kGotSlotFirstUser);
          CO_ASSERT_OK(cell1);
          auto v = g1.LoadAt<uint64_t>(*cell1, 0);
          CO_ASSERT_OK(v);
          CO_ASSERT_OK(g1.StoreAt<uint64_t>(*cell1, 0, *v + 1));
          auto grandchild = co_await g1.Fork([&leaf_value](Guest& g2) -> SimTask<void> {
            auto cell2 = g2.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_OK(cell2);
            auto v2 = g2.LoadAt<uint64_t>(*cell2, 0);
            CO_ASSERT_OK(v2);
            leaf_value = *v2 + 1;
            co_await g2.Exit(0);
          });
          CO_ASSERT_OK(grandchild);
          (void)co_await g1.Wait();
          co_await g1.Exit(0);
        });
        CO_ASSERT_OK(child);
        (void)co_await g.Wait();
      }),
      "generations");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(leaf_value, 3u) << "each generation increments the inherited counter once";
}

// --- randomized fork-storm property test --------------------------------------------------------

class ForkStormTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ForkStormTest, ::testing::Values(1u, 7u, 42u, 1337u));

// A parent builds a random array in guest memory, forks a chain of children at random points,
// each child verifies the fork-time snapshot against a host-side reference and mutates
// randomly; the parent's final state must match the host model exactly. Exercises CoW/CoPA in
// both directions under randomized access patterns.
TEST_P(ForkStormTest, SnapshotsMatchReferenceModel) {
  const uint64_t seed = GetParam();
  KernelConfig config;
  config.layout.heap_size = 2 * kMiB;
  auto kernel = MakeUforkKernel(config);
  auto pid = kernel->Spawn(
      MakeGuestEntry([seed](Guest& g) -> SimTask<void> {
        constexpr uint64_t kWords = 2048;  // 16 KiB working set across 4 pages
        auto array = g.Malloc(kWords * 8);
        CO_ASSERT_OK(array);
        std::vector<uint64_t> model(kWords, 0);
        Rng rng(seed);
        for (uint64_t i = 0; i < kWords; ++i) {
          model[i] = rng.NextU64();
          CO_ASSERT_OK(g.StoreAt<uint64_t>(*array, i * 8, model[i]));
        }
        CO_ASSERT_OK(g.GotStore(kGotSlotFirstUser, *array));

        for (int round = 0; round < 6; ++round) {
          // Snapshot for the child: verify a random sample, then mutate a random subset.
          const std::vector<uint64_t> snapshot = model;
          auto child = co_await g.Fork([&snapshot, seed, round](Guest& cg) -> SimTask<void> {
            auto arr = cg.GotLoad(kGotSlotFirstUser);
            CO_ASSERT_OK(arr);
            Rng crng(seed * 1000 + static_cast<uint64_t>(round));
            std::set<uint64_t> scribbled;
            for (int probe = 0; probe < 200; ++probe) {
              const uint64_t i = crng.NextBelow(snapshot.size());
              auto v = cg.LoadAt<uint64_t>(*arr, i * 8);
              CO_ASSERT_OK(v);
              const uint64_t expected =
                  scribbled.count(i) != 0 ? ~snapshot[i] : snapshot[i];
              EXPECT_EQ(*v, expected) << "round " << round << " index " << i;
              // Scribble over the child's copy; must never reach the parent.
              CO_ASSERT_OK(cg.StoreAt<uint64_t>(*arr, i * 8, ~snapshot[i]));
              scribbled.insert(i);
            }
            co_await cg.Exit(0);
          });
          CO_ASSERT_OK(child);
          // Parent mutates concurrently with the child's verification.
          for (int m = 0; m < 100; ++m) {
            const uint64_t i = rng.NextBelow(kWords);
            model[i] = rng.NextU64();
            CO_ASSERT_OK(g.StoreAt<uint64_t>(*array, i * 8, model[i]));
          }
          auto waited = co_await g.Wait();
          CO_ASSERT_OK(waited);
          EXPECT_EQ(waited->status, 0);
        }
        // Final sweep: the parent's array must match the host model word for word.
        for (uint64_t i = 0; i < kWords; ++i) {
          auto v = g.LoadAt<uint64_t>(*array, i * 8);
          CO_ASSERT_OK(v);
          if (*v != model[i]) {
            ADD_FAILURE() << "divergence at " << i;
            co_return;
          }
        }
      }),
      "storm");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
  EXPECT_EQ(kernel->stats().forks, 6u);
}

}  // namespace
}  // namespace ufork
