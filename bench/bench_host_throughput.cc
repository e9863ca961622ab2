// Host (wall-clock) throughput of the simulator itself — the benchmark gate for host-side
// optimization PRs.
//
// Every other bench in this directory reports *virtual* time from the calibrated cost model;
// this one reports how many nanoseconds of host CPU the simulator spends producing each unit of
// simulated work. It pins the hot paths the ROADMAP's "runs as fast as the hardware allows"
// goal depends on:
//   * TaggedPageCopyRelocate — the §4.2 inner loop: allocate a frame, copy a 4 KiB tagged
//     page, rank-select scan + rebase every tagged capability, release the frame. This is the
//     per-page cost of every CoW/CoA/CoPA resolution and every eager fork copy.
//   * SimulatedFork — end-to-end hello-world fork+exit+wait round trips per host second,
//     across the three systems.
//   * CopaFaultResolution — a forked child chasing tagged pointers through shared pages; host
//     cost per resolved capability-load fault.
//   * SyscallGetPid — host cost per trivial simulated syscall (sealed entry / trap /
//     hypercall all exercise the same host-side syscall scaffolding).
//   * RedisSaveEndToEnd — host runtime of one Fig. 3 Redis BGSAVE run (10 MB database), the
//     macro workload whose heap (≈35k frames) pays for the frame hot path on every run. Its
//     `storage_frames` / `peak_frames` counters feed the mem.redis_storage_share gate row.
//   * FrameAllocatorImage — host cost per frame of a Redis image's worth of grants, sparse
//     writes, copies and releases (the per-layer row for the frame allocator).
//   * SchedulerDispatch — host cost per scheduler dispatch at N ready threads (the per-layer
//     row for dispatch; it should stay nearly flat as N grows).
//   * KernelLockHerd — host cost per fork when 64 roots on 4 cores retry the big kernel lock,
//     ~127 dispatches per fork (the per-layer row for dispatch under fork_fleet's retry herd).
//   * PageTableSweep — host cost per page of fork's page-table duplication and exit's
//     teardown: CloneRange then UnmapRange over a hello-sized and a Redis-sized image (the
//     per-layer row for the page table).
//
// Host time is gated only by a paired same-host A/B, `bench/gates.py --ab REV`: every row runs
// alone against REV's build, alternating sides, and fails if its median cpu_time ratio exceeds
// 1.10 (EXPERIMENTS.md "Host throughput"). Virtual-time results are pinned separately by
// tests/golden_cycles_test.cc — host optimizations must move THIS file's numbers and nothing
// there.
#include <chrono>
#include <optional>

#include "bench/redis_bench_util.h"
#include "src/ufork/relocate.h"

namespace ufork {
namespace bench {
namespace {

// --- TaggedPageCopyRelocate ---------------------------------------------------------------------

// One simulated page copy as performed by UforkBackend::CopyAndRelocate: recycle a frame from
// the allocator, copy data + tags, relocate every tagged capability into the child region.
void TaggedPageCopyRelocate(::benchmark::State& state) {
  const uint64_t tagged_granules = static_cast<uint64_t>(state.range(0));
  AddressSpace as(4 * kGiB, 8 * kGiB);
  const uint64_t region_size = 4 * kMiB;
  const uint64_t parent = as.AllocateRegion(region_size, 2 * kMiB).value();
  const uint64_t child = as.AllocateRegion(region_size, 2 * kMiB).value();

  Frame src;
  for (uint64_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) {
    const uint64_t v = 0x9e3779b97f4a7c15ULL * (i + 1);
    src.Write(i * sizeof(uint64_t), std::as_bytes(std::span(&v, 1)));
  }
  // Spread the tagged capabilities evenly over the page, all pointing into the parent region
  // (the common case: every one must be rebased).
  const uint64_t stride = kGranulesPerPage / std::max<uint64_t>(1, tagged_granules);
  for (uint64_t t = 0; t < tagged_granules; ++t) {
    const uint64_t granule = t * stride;
    src.StoreCap(granule * kCapSize,
                 Capability::Root(parent + 0x1000 + t * 64, 64, kPermAllData));
  }

  FrameAllocator alloc(/*max_frames=*/4);
  uint64_t relocated = 0;
  for (auto _ : state) {
    const FrameId id = alloc.AllocateForCopy().value();
    Frame& dst = alloc.WritableFrame(id);
    dst.CopyFrom(src);
    const RelocationResult reloc = RelocateFrameInto(dst, as, child, region_size);
    relocated += reloc.relocated;
    ::benchmark::DoNotOptimize(relocated);
    alloc.Release(id);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["caps_per_page"] = static_cast<double>(tagged_granules);
}

BENCHMARK(TaggedPageCopyRelocate)->Arg(0)->Arg(8)->Arg(64)->Arg(256);

// --- SimulatedFork ------------------------------------------------------------------------------

constexpr int kForksPerRun = 20;

// One complete hello-world run: fork kForksPerRun children sequentially, each exits, parent
// waits. Host time per simulated fork is the figure of merit.
void SimulatedFork(::benchmark::State& state, System system) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    RunGuestMain(sc, [](Guest& g) -> SimTask<void> {
      for (int i = 0; i < kForksPerRun; ++i) {
        GuestFn child_fn = [](Guest& cg) -> SimTask<void> {
          auto block = cg.Malloc(64);
          UF_CHECK(block.ok());
          co_await cg.Exit(0);
        };
        auto child = co_await g.Fork(std::move(child_fn));
        UF_CHECK(child.ok());
        auto waited = co_await g.Wait();
        UF_CHECK(waited.ok());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kForksPerRun);
}

BENCHMARK_CAPTURE(SimulatedFork, uFork, System::kUfork);
BENCHMARK_CAPTURE(SimulatedFork, CheriBSD, System::kCheriBsd);
BENCHMARK_CAPTURE(SimulatedFork, Nephele, System::kNephele);

// --- ForkFleetThroughput ------------------------------------------------------------------------

constexpr int kFleetRoots = 8;
constexpr int kFleetForksPerRoot = 8;

// An 8-root fork fleet, each root forking and reaping children that dirty anonymous memory
// (CoW work on the shared machine); `forks_per_hsec` is fork round trips per host second.
void ForkFleetThroughput(::benchmark::State& state) {
  SystemConfig sc;
  sc.kernel.layout = HelloLayout();
  sc.kernel.cores = 4;
  for (auto _ : state) {
    auto kernel = MakeSystem(sc);
    for (int root = 0; root < kFleetRoots; ++root) {
      auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                                 for (int i = 0; i < kFleetForksPerRoot; ++i) {
                                   auto child =
                                       co_await g.Fork([](Guest& cg) -> SimTask<void> {
                                         auto mapped = co_await cg.MmapAnon(4 * kPageSize);
                                         UF_CHECK(mapped.ok());
                                         for (uint64_t off = 0; off < 4 * kPageSize;
                                              off += kPageSize) {
                                           UF_CHECK(cg.Store<uint64_t>(
                                                        *mapped, mapped->base() + off, off)
                                                        .ok());
                                         }
                                         co_await cg.Exit(0);
                                       });
                                   UF_CHECK(child.ok());
                                   auto waited = co_await g.Wait();
                                   UF_CHECK(waited.ok());
                                 }
                               }),
                               "fleet" + std::to_string(root));
      UF_CHECK(pid.ok());
    }
    kernel->Run();
  }
  const auto total_forks =
      static_cast<int64_t>(state.iterations()) * kFleetRoots * kFleetForksPerRoot;
  state.SetItemsProcessed(total_forks);
  state.counters["forks_per_hsec"] =
      ::benchmark::Counter(static_cast<double>(total_forks), ::benchmark::Counter::kIsRate);
}

BENCHMARK(ForkFleetThroughput)->UseRealTime();

// --- HttpdFleetFootprint ------------------------------------------------------------------------

constexpr int kHttpdWorkers = 256;

// Memory footprint of a 256-worker httpd-style fleet (DESIGN.md §4.12): every worker is
// posix_spawned from the same image and mmaps the same config file through the unified page
// cache. Arg 0 = eager population, Arg 1 = demand paging. The figure of merit is the
// `resident_frames` counter sampled while the whole fleet is live — the
// footprint.demand_over_eager row of bench/gates.py pins demand ≤ 0.5× eager. `reserved_mb`
// records the VA the demand fleet holds as frame-less reservations instead.
void HttpdFleetFootprint(::benchmark::State& state) {
  const bool demand = state.range(0) != 0;
  SystemConfig sc;
  sc.system = System::kUfork;
  sc.kernel.layout = HttpdLayout();
  sc.kernel.demand_paging = demand;
  uint64_t resident = 0;
  uint64_t reserved_bytes = 0;
  for (auto _ : state) {
    auto kernel = MakeSystem(sc);
    kernel->procs().RegisterProgram(
        "httpd-worker", MakeGuestEntry([](Guest& g) -> SimTask<void> {
          // A worker's steady state: read the shared config through the page cache, touch a
          // little private heap, then serve (sleep) until the sampler has seen the fleet.
          auto conf = co_await g.MmapFile("/etc/httpd.conf", 2 * kPageSize);
          UF_CHECK(conf.ok());
          auto word = g.Load<uint64_t>(*conf, conf->base());
          UF_CHECK(word.ok());
          auto scratch = g.Malloc(8 * kKiB);
          UF_CHECK(scratch.ok());
          UF_CHECK(g.Store<uint64_t>(*scratch, scratch->base(), *word).ok());
          UF_CHECK((co_await g.Nanosleep(Cycles{1'000'000'000})).ok());
        }));
    auto pid = kernel->Spawn(
        MakeGuestEntry([&resident, &reserved_bytes](Guest& g) -> SimTask<void> {
          auto buf = g.Malloc(kPageSize);
          UF_CHECK(buf.ok());
          auto fd = co_await g.Open("/etc/httpd.conf", kOpenWrite | kOpenCreate);
          UF_CHECK(fd.ok());
          UF_CHECK((co_await g.Write(*fd, *buf, kPageSize)).ok());
          UF_CHECK((co_await g.Close(*fd)).ok());
          for (int i = 0; i < kHttpdWorkers; ++i) {
            auto worker = co_await g.SpawnProgram("httpd-worker");
            UF_CHECK(worker.ok());
          }
          // Every worker's image exists (spawn maps it) and none has woken: sample the
          // fleet's footprint at its plateau.
          resident = g.kernel().ResidentFrames();
          reserved_bytes = g.kernel().ReservedBytes();
          for (int i = 0; i < kHttpdWorkers; ++i) {
            auto waited = co_await g.Wait();
            UF_CHECK(waited.ok());
          }
        }),
        "httpd-init");
    UF_CHECK(pid.ok());
    kernel->Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kHttpdWorkers);
  state.counters["demand"] = demand ? 1.0 : 0.0;
  state.counters["resident_frames"] = static_cast<double>(resident);
  state.counters["reserved_mb"] =
      static_cast<double>(reserved_bytes) / static_cast<double>(kMiB);
}

BENCHMARK(HttpdFleetFootprint)->Arg(0)->Arg(1)->Unit(::benchmark::kMillisecond);

// --- CopaFaultResolution ------------------------------------------------------------------------

constexpr uint64_t kCopaBlocks = 256;    // tagged chain spread over ~128 heap pages
constexpr uint64_t kCopaBlockBytes = 2048;

// Parent builds a long capability chain, the forked child chases it: every page's first tagged
// load raises a CoPA fault (copy + relocate). Items = resolved cap-load faults.
void CopaFaultResolution(::benchmark::State& state) {
  SystemConfig sc;
  sc.system = System::kUfork;
  sc.kernel.layout = HelloLayout();
  sc.kernel.layout.heap_size = 4 * kMiB;
  uint64_t faults = 0;
  for (auto _ : state) {
    auto kernel = RunGuestMain(sc, [](Guest& g) -> SimTask<void> {
      Capability prev;
      for (uint64_t i = 0; i < kCopaBlocks; ++i) {
        auto block = g.Malloc(kCopaBlockBytes);
        UF_CHECK(block.ok());
        if (i == 0) {
          UF_CHECK(g.GotStore(kGotSlotFirstUser, *block).ok());
        } else {
          UF_CHECK(g.StoreCap(prev, prev.base(), *block).ok());
        }
        prev = *block;
      }
      UF_CHECK(g.StoreCap(prev, prev.base(), Capability::Integer(0)).ok());
      GuestFn child_fn = [](Guest& cg) -> SimTask<void> {
        auto head = cg.GotLoad(kGotSlotFirstUser);
        UF_CHECK(head.ok());
        Capability cursor = *head;
        uint64_t visited = 0;
        while (cursor.tag()) {
          auto next = cg.LoadCap(cursor, cursor.base());
          UF_CHECK(next.ok());
          cursor = *next;
          ++visited;
        }
        co_await cg.Exit(visited == kCopaBlocks ? 0 : 1);
      };
      auto child = co_await g.Fork(std::move(child_fn));
      UF_CHECK(child.ok());
      auto waited = co_await g.Wait();
      UF_CHECK(waited.ok() && waited->status == 0);
    });
    faults += kernel->machine().cap_load_faults();
  }
  state.SetItemsProcessed(static_cast<int64_t>(faults));
}

BENCHMARK(CopaFaultResolution);

// --- SyscallGetPid ------------------------------------------------------------------------------

constexpr int kSyscallsPerRun = 2000;

void SyscallGetPid(::benchmark::State& state, System system) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = HelloLayout();
  for (auto _ : state) {
    RunGuestMain(sc, [](Guest& g) -> SimTask<void> {
      for (int i = 0; i < kSyscallsPerRun; ++i) {
        auto pid = co_await g.GetPid();
        UF_CHECK(pid.ok());
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kSyscallsPerRun);
}

BENCHMARK_CAPTURE(SyscallGetPid, uFork, System::kUfork);
BENCHMARK_CAPTURE(SyscallGetPid, CheriBSD, System::kCheriBsd);
BENCHMARK_CAPTURE(SyscallGetPid, Nephele, System::kNephele);

// --- RedisSaveEndToEnd --------------------------------------------------------------------------

// Full Fig. 3 run at 10 MB: populate, fork, serialize, verify. Host runtime of the macro
// workload — the end-to-end number the per-page optimizations must move.
void RedisSaveEndToEnd(::benchmark::State& state) {
  SystemConfig sc;
  sc.system = System::kUfork;
  sc.kernel.layout = RedisLayout();
  RedisRunResult result;
  for (auto _ : state) {
    result = RunRedisBgSave(sc, 10 * kMiB);
    ::benchmark::DoNotOptimize(result.save_elapsed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["storage_frames"] = static_cast<double>(result.storage_frames);
  state.counters["peak_frames"] = static_cast<double>(result.peak_frames);
}

BENCHMARK(RedisSaveEndToEnd)->Unit(::benchmark::kMillisecond);

// --- FrameAllocatorImage ------------------------------------------------------------------------

constexpr uint64_t kImageFrames = 35168;  // a set-up redis_bgsave image's resident frames

// One image's life in a fresh allocator: grant every frame zeroed, write one page in six,
// copy a quarter of the image with CopyFrame (as fork and fault resolution do), then release
// everything. Items are frames granted; `storage_frames` counts those given host storage.
void FrameAllocatorImage(::benchmark::State& state) {
  std::vector<FrameId> image(kImageFrames);
  std::vector<FrameId> copies(kImageFrames / 4);
  uint64_t storage = 0;
  for (auto _ : state) {
    FrameAllocator alloc(kImageFrames + copies.size());
    for (FrameId& id : image) {
      id = alloc.Allocate().value();
    }
    for (uint64_t i = 0; i < image.size(); i += 6) {
      alloc.WritableFrame(image[i]).Write(0, std::as_bytes(std::span(&i, 1)));
    }
    for (uint64_t i = 0; i < copies.size(); ++i) {
      copies[i] = alloc.AllocateForCopy().value();
      alloc.CopyFrame(copies[i], image[4 * i]);
    }
    for (const FrameId id : copies) {
      alloc.Release(id);
    }
    for (const FrameId id : image) {
      alloc.Release(id);
    }
    storage = alloc.storage_frames();
    ::benchmark::DoNotOptimize(storage);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() *
                                               (image.size() + copies.size())));
  state.counters["storage_frames"] = static_cast<double>(storage);
}

BENCHMARK(FrameAllocatorImage)->Unit(::benchmark::kMillisecond);

// --- SchedulerDispatch --------------------------------------------------------------------------

constexpr uint64_t kDispatchesPerRun = 64 * 1024;

// A raw Scheduler on 4 cores running N threads that each charge a short slice and yield, so
// about N - 4 threads are ready at every pick. Arg is N; items are dispatches (slices run).
void SchedulerDispatch(::benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const uint64_t yields = kDispatchesPerRun / static_cast<uint64_t>(threads);
  uint64_t dispatches = 0;
  for (auto _ : state) {
    Scheduler sched(4);
    for (int i = 0; i < threads; ++i) {
      sched.Spawn(
          [](Scheduler& s, uint64_t n, Cycles slice) -> SimTask<void> {
            for (uint64_t k = 0; k < n; ++k) {
              s.Charge(slice);
              co_await s.Yield();
            }
          }(sched, yields, 100 + static_cast<Cycles>(i % 16)),
          "y" + std::to_string(i));
    }
    sched.Run();
    dispatches += sched.slices_executed();
    ::benchmark::DoNotOptimize(dispatches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(dispatches));
}

BENCHMARK(SchedulerDispatch)->Arg(4)->Arg(64)->Arg(1024);

// --- KernelLockHerd -----------------------------------------------------------------------------

constexpr int kHerdRoots = 64;
constexpr int kHerdForksPerRoot = 8;

// fork_fleet's shape without its driver: 64 roots on 4 cores fork and reap trivial children.
// All but one wait on the big kernel lock at a time, each sleeping until the lock's last
// release and retrying, so a fork costs ~127 dispatches (`slices_per_fork`). The per-layer row
// for dispatch under the retry herd; items are forks.
void KernelLockHerd(::benchmark::State& state) {
  SystemConfig sc;
  sc.kernel.layout = HelloLayout();
  sc.kernel.cores = 4;
  uint64_t slices = 0;
  for (auto _ : state) {
    state.PauseTiming();  // building 64 root images costs more than their forks
    auto kernel = MakeSystem(sc);
    for (int root = 0; root < kHerdRoots; ++root) {
      auto pid = kernel->Spawn(MakeGuestEntry([](Guest& g) -> SimTask<void> {
                                 for (int i = 0; i < kHerdForksPerRoot; ++i) {
                                   GuestFn child_fn = [](Guest& cg) -> SimTask<void> {
                                     co_await cg.Exit(0);
                                   };
                                   auto child = co_await g.Fork(std::move(child_fn));
                                   UF_CHECK(child.ok());
                                   auto waited = co_await g.Wait();
                                   UF_CHECK(waited.ok());
                                 }
                               }),
                               "herd" + std::to_string(root));
      UF_CHECK(pid.ok());
    }
    state.ResumeTiming();
    kernel->Run();
    state.PauseTiming();
    slices += kernel->sched().slices_executed();
    kernel.reset();
    state.ResumeTiming();
  }
  const auto forks = static_cast<int64_t>(state.iterations()) * kHerdRoots * kHerdForksPerRoot;
  state.SetItemsProcessed(forks);
  state.counters["slices_per_fork"] = static_cast<double>(slices) / static_cast<double>(forks);
}

BENCHMARK(KernelLockHerd)->Unit(::benchmark::kMillisecond);

// --- PageTableSweep -----------------------------------------------------------------------------

// One fork-and-exit's worth of page-table work on an N-page image in a shared table: clone the
// parent's PTEs into a child region with the CoPA write-protect, then unmap the child. Arg is
// N (352 ≈ the hello image, 35000 ≈ the Redis image); `ns_per_page` is host time per page.
void PageTableSweep(::benchmark::State& state) {
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  const uint64_t bytes = pages * kPageSize;
  const uint64_t parent = 4 * kGiB;
  const uint64_t child = parent + AlignUp(bytes, 2 * kMiB);
  PageTable pt;
  for (uint64_t i = 0; i < pages; ++i) {
    pt.Map(parent + i * kPageSize, static_cast<FrameId>(i), kPteRw);
  }
  uint64_t released = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    pt.CloneRange(pt, parent, child, bytes, [](uint64_t, Pte& pte) -> std::optional<Pte> {
      return Pte{pte.frame, kPteRead | kPteCow | kPteLoadCapFault};
    });
    pt.UnmapRange(child, child + bytes, [&released](uint64_t, FrameId frame) {
      released += frame;
    });
    ::benchmark::DoNotOptimize(released);
  }
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start).count();
  const double swept = static_cast<double>(state.iterations()) * static_cast<double>(pages);
  state.SetItemsProcessed(static_cast<int64_t>(swept));
  state.counters["ns_per_page"] = elapsed_ns / swept;
}

BENCHMARK(PageTableSweep)->Arg(352)->Arg(35000);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
