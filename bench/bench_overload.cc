// Overload survival — open-loop fleet harness (DESIGN.md §4.10, EXPERIMENTS.md "Overload").
//
// Three tenant services share one constrained-memory machine:
//
//   tenant 1  FaaS     Zygote runtime; every request forks an executor running a
//                      heavy-tailed float_operation (FunctionBench).
//   tenant 2  httpd    fork-per-connection: each connection forks a worker that mmaps a
//                      heavy-tailed response buffer up-front, fills it, "sends" it, exits.
//   tenant 3  redis    in-memory store serving inline SETs over a bounded keyspace with a
//                      BGSAVE fork every kOpsPerSnapshot writes.
//
// Arrivals are OPEN-LOOP: each service draws Poisson arrivals (seeded exponential
// inter-arrival times in virtual time) and never slows down when the kernel pushes back —
// the generator models external clients, so a refused fork is a REJECTED request, not a
// retry. Request sizes (executor iterations, response bytes, value sizes) are bounded-Pareto
// heavy tails. A reaper thread inside each service harvests children and classifies exits:
// status 0 = goodput, status >= 128 = CRASHED (an uncontained out-of-memory death — the
// failure mode admission control exists to prevent).
//
// The 1x rate point is calibrated to saturate the machine; 2x is overload. Acceptance
// (gated by the overload.* rows of bench/gates.py):
//   - goodput at 2x >= 80% of goodput at 1x (admission sheds load instead of collapsing),
//   - crashed == 0 with admission armed (rejection happens at the fork front door, with
//     enough low-watermark headroom that admitted work always finishes),
//   - the whole run is a pure function of (system, seed): UFORK_OVERLOAD_REPLAY_CHECK=1
//     re-runs every fleet and checks counters and every latency sample bit-for-bit.
//
// Environment knobs (all optional):
//   UFORK_OVERLOAD_SEED=N          master seed (default 1)
//   UFORK_OVERLOAD_CHAOS_SEED=N    also arm every fault-injection site probabilistically at
//                                  go-time (chaos x overload soak; crashed==0 is not
//                                  expected under chaos, containment and determinism are)
//   UFORK_OVERLOAD_REPLAY_CHECK=1  run each fleet twice and require bit-identical results
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "src/apps/faas.h"
#include "src/apps/miniredis.h"

namespace ufork {
namespace bench {
namespace {

// --- fleet parameters ---------------------------------------------------------------------------

constexpr TenantId kTenantFaas = 1;
constexpr TenantId kTenantHttpd = 2;
constexpr TenantId kTenantRedis = 3;

// Machine: 4 cores, 32 MiB of frames. Small enough that sustained 2x overload exhausts the
// pool in a fraction of the window; large enough that the three services boot with room to
// spare (the watermarks are calibrated against the measured post-boot free count, below).
constexpr uint64_t kFleetPhysMem = 32 * kMiB;
constexpr Cycles kWindow = Milliseconds(200);

// Saturation rates (the "1x" point). Derivation from worker capacity: the mean executor
// runs ~8.7k iterations x 90 cycles ~ 310 us, so ~3 effective cores sustain ~9.7k
// functions/s; httpd and redis add fork/teardown- and copy-bound load on top. The split
// below lands total utilization at the knee — verified empirically: at 1x the admission
// controller barely trips, at 2x it sheds continuously.
constexpr double kSatFaasRate = 6000.0;   // functions/s
constexpr double kSatHttpdRate = 3000.0;  // connections/s
constexpr double kSatRedisRate = 8000.0;  // SET ops/s
constexpr int kOpsPerSnapshot = 64;       // BGSAVE fork cadence (in SET ops)

// Heavy tails (bounded Pareto).
constexpr double kFaasAlpha = 1.3;
constexpr uint64_t kFaasMinIters = 2'000;
constexpr uint64_t kFaasMaxIters = 60'000;
constexpr double kHttpdAlpha = 1.2;
constexpr uint64_t kHttpdMinResp = 4 * kKiB;
constexpr uint64_t kHttpdMaxResp = 64 * kKiB;
constexpr double kRedisAlpha = 1.2;
constexpr uint64_t kRedisMinVal = 64;
constexpr uint64_t kRedisMaxVal = 4 * kKiB;
constexpr uint64_t kRedisKeySpace = 256;

// Watermarks as fractions of the post-boot free-frame count (measured at go-time, the same
// calibration pattern tests/overload_test.cc uses). Admission sheds with EAGAIN, so every
// frame below the low watermark is headroom that lets already-admitted children finish
// allocating — it is what makes crashed==0 achievable under sustained 2x overload.
constexpr double kLowFraction = 0.35;
constexpr double kClearFraction = 0.45;
// Belt-and-braces only: the cap must sit well above any tenant's legitimate overload share
// (admission watermarks do the shedding), and only contain a runaway hog. A binding cap
// turns admitted children's grants into ENOMEM deaths — exactly what the gate forbids.
constexpr double kTenantCapFraction = 0.80;

constexpr double kChaosProbability = 0.001;

// Small unikernel-style image; frames are only consumed for touched pages, so the virtual
// layout can be generous while the physical pool stays tight.
LayoutConfig FleetLayout() {
  LayoutConfig layout;
  layout.text_size = 64 * kKiB;
  layout.rodata_size = 16 * kKiB;
  layout.got_size = 16 * kKiB;
  layout.data_size = 16 * kKiB;
  layout.heap_size = 2 * kMiB;
  layout.stack_size = 64 * kKiB;
  layout.tls_size = 4 * kKiB;
  layout.mmap_size = 256 * kKiB;
  return layout;
}

// --- seeded samplers ----------------------------------------------------------------------------

double ExpSample(Rng& rng, double mean) { return -std::log(1.0 - rng.NextDouble()) * mean; }

// Inverse CDF of a Pareto(alpha) truncated to [lo, hi].
uint64_t BoundedPareto(Rng& rng, double alpha, uint64_t lo, uint64_t hi) {
  const double u = rng.NextDouble();
  const double la = std::pow(static_cast<double>(lo), alpha);
  const double ha = std::pow(static_cast<double>(hi), alpha);
  const double x = std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
  return static_cast<uint64_t>(x);
}

// --- per-service accounting ---------------------------------------------------------------------

// Host-side measurement bookkeeping only — the analogue of the external load generator's
// ledger, not guest program state (the requests themselves live entirely in guest memory).
struct ServiceStats {
  uint64_t offered = 0;    // arrivals generated
  uint64_t completed = 0;  // goodput: children reaped with status 0, or inline ops served
  uint64_t rejected = 0;   // shed: fork/op refused with EAGAIN/ENOMEM (no child ever ran)
  uint64_t crashed = 0;    // children reaped with status >= 128 (uncontained OOM death)
  std::vector<Cycles> latencies;  // per-request: arrival due-time -> completion
  bool dump_published = false;    // Redis only: a BGSAVE published a dump that verified

  bool operator==(const ServiceStats& o) const {
    return offered == o.offered && completed == o.completed && rejected == o.rejected &&
           crashed == o.crashed && latencies == o.latencies &&
           dump_published == o.dump_published;
  }
};

struct OpenLoopParams {
  Cycles window = kWindow;
  double rate_hz = 0.0;
  uint64_t seed = 0;
  bool chaos = false;  // fault-injection sites armed: service ops may fail spuriously
};

// --- open-loop skeleton -------------------------------------------------------------------------

// Reaper thread: harvests children, stamps latencies, classifies exits. Runs until the
// generator is done AND every in-flight child has been reaped. Wait() with no live children
// returns ECHILD immediately, so idle phases poll on a short virtual-time sleep.
GuestFn MakeReaper(ServiceStats* stats, std::unordered_map<Pid, Cycles>* started,
                   uint64_t* inflight, bool* done) {
  return [stats, started, inflight, done](Guest& tg) -> SimTask<void> {
    Scheduler& sched = tg.kernel().sched();
    while (!*done || *inflight > 0) {
      auto waited = co_await tg.Wait();
      if (!waited.ok()) {
        co_await tg.Nanosleep(Microseconds(100));
        continue;
      }
      --*inflight;
      auto it = started->find(waited->pid);
      if (it != started->end()) {
        stats->latencies.push_back(sched.Now() - it->second);
        started->erase(it);
      }
      if (waited->status == 0) {
        ++stats->completed;
      } else if (waited->status >= 128) {
        ++stats->crashed;
      }
    }
  };
}

// One open-loop fork-per-request service: Poisson arrivals; `launch` forks the request child
// and returns its pid (or the kernel's refusal). The generator never blocks on the kernel —
// a refused fork is shed and the clock keeps running.
SimTask<void> OpenLoopService(Guest& g, OpenLoopParams p, ServiceStats* stats,
                              std::function<SimTask<Result<Pid>>(Guest&, Rng&)> launch) {
  Scheduler& sched = g.kernel().sched();
  Rng arrivals(p.seed);
  Rng payload(p.seed ^ 0x9e3779b97f4a7c15ULL);
  std::unordered_map<Pid, Cycles> started;
  uint64_t inflight = 0;
  bool done = false;

  // Under chaos the thread-create path may be injected; the service itself must survive.
  Result<ThreadId> reaper{Error{Code::kErrAgain, "unstarted"}};
  for (int attempt = 0; attempt < 100 && !reaper.ok(); ++attempt) {
    reaper = co_await g.ThreadCreate(MakeReaper(stats, &started, &inflight, &done));
    if (!reaper.ok()) {
      co_await g.Nanosleep(Microseconds(50));
    }
  }
  UF_CHECK_MSG(reaper.ok(), "overload service could not start its reaper thread");

  const Cycles start = sched.Now();
  const double mean_gap_s = 1.0 / p.rate_hz;
  double due_s = ExpSample(arrivals, mean_gap_s);
  for (;;) {
    const auto due = static_cast<Cycles>(due_s * static_cast<double>(kCyclesPerSecond));
    if (due >= p.window) {
      break;
    }
    const Cycles now = sched.Now() - start;
    if (now < due) {
      co_await g.Nanosleep(due - now);
    }
    ++stats->offered;
    auto child = co_await launch(g, payload);
    if (child.ok()) {
      started[*child] = start + due;  // latency is measured from the arrival's due time
      ++inflight;
    } else {
      ++stats->rejected;
    }
    due_s += ExpSample(arrivals, mean_gap_s);
  }
  done = true;
  while (inflight > 0) {
    co_await g.Nanosleep(Microseconds(200));
  }
  (void)co_await g.ThreadJoin(*reaper);
}

// --- the three services -------------------------------------------------------------------------

SimTask<Result<Pid>> LaunchFaasExecutor(Guest& g, Rng& payload) {
  const uint64_t iters = BoundedPareto(payload, kFaasAlpha, kFaasMinIters, kFaasMaxIters);
  return g.Fork([iters](Guest& cg) -> SimTask<void> {
    // Naive executor: any failure reaching the warm runtime (a CoW/CoPA break that cannot
    // get a frame) is a segfault, exactly like a native function whose malloc'd world
    // vanished mid-flight.
    auto value = FloatOperation(cg, iters);
    if (!value.ok()) {
      co_await cg.RaiseFault(value.error());
      co_return;
    }
    co_await cg.Exit(0);
  });
}

SimTask<Result<Pid>> LaunchHttpdConnection(Guest& g, Rng& payload) {
  const uint64_t resp = BoundedPareto(payload, kHttpdAlpha, kHttpdMinResp, kHttpdMaxResp);
  const uint64_t resp_pages = (resp + kPageSize - 1) / kPageSize;
  return g.Fork([resp, resp_pages](Guest& cg) -> SimTask<void> {
    // Naive CGI worker: the whole response buffer is allocated and touched up-front (so the
    // child's frame demand lands immediately, while the admission headroom that let it in
    // still exists), then serialized and "sent".
    auto buf = co_await cg.MmapAnon(resp_pages * kPageSize);
    if (!buf.ok()) {
      co_await cg.RaiseFault(buf.error());
      co_return;
    }
    for (uint64_t page = 0; page < resp_pages; ++page) {
      auto stored = cg.Store<uint64_t>(*buf, buf->base() + page * kPageSize, page + 1);
      if (!stored.ok()) {
        co_await cg.RaiseFault(stored.error());
        co_return;
      }
    }
    cg.Compute(resp * 4);  // checksum + TLS record framing
    co_await cg.Exit(0);
  });
}

// Redis is not fork-per-request: SETs are served inline by the coordinator (their latency
// still measures queueing delay — under pressure the coordinator falls behind its arrival
// clock), and every kOpsPerSnapshot-th write triggers a BGSAVE fork harvested by the reaper.
SimTask<void> RedisService(Guest& g, OpenLoopParams p, ServiceStats* stats) {
  Scheduler& sched = g.kernel().sched();
  auto db = MiniRedis::Create(g, /*buckets=*/64);
  UF_CHECK_MSG(db.ok(), "mini-redis create failed at fleet boot");
  Rng preload_rng(p.seed ^ 0xc0ffee);
  for (uint64_t i = 0; i < kRedisKeySpace; ++i) {
    const uint64_t len = BoundedPareto(preload_rng, kRedisAlpha, kRedisMinVal, kRedisMaxVal);
    std::vector<std::byte> value(len, std::byte{static_cast<uint8_t>(i)});
    UF_CHECK_MSG(db->Set("key-" + std::to_string(i), value).ok(), "redis preload failed");
  }

  Rng arrivals(p.seed);
  Rng payload(p.seed ^ 0x9e3779b97f4a7c15ULL);
  std::unordered_map<Pid, Cycles> started;
  uint64_t inflight = 0;
  bool done = false;
  Result<ThreadId> reaper{Error{Code::kErrAgain, "unstarted"}};
  for (int attempt = 0; attempt < 100 && !reaper.ok(); ++attempt) {
    reaper = co_await g.ThreadCreate(MakeReaper(stats, &started, &inflight, &done));
    if (!reaper.ok()) {
      co_await g.Nanosleep(Microseconds(50));
    }
  }
  UF_CHECK_MSG(reaper.ok(), "redis service could not start its reaper thread");

  const Cycles start = sched.Now();
  const double mean_gap_s = 1.0 / p.rate_hz;
  double due_s = ExpSample(arrivals, mean_gap_s);
  uint64_t ops = 0;
  for (;;) {
    const auto due = static_cast<Cycles>(due_s * static_cast<double>(kCyclesPerSecond));
    if (due >= p.window) {
      break;
    }
    const Cycles now = sched.Now() - start;
    if (now < due) {
      co_await g.Nanosleep(due - now);
    }
    ++stats->offered;
    const uint64_t key = payload.NextU64() % kRedisKeySpace;
    const uint64_t len = BoundedPareto(payload, kRedisAlpha, kRedisMinVal, kRedisMaxVal);
    std::vector<std::byte> value(len, std::byte{static_cast<uint8_t>(key)});
    auto set = db->Set("key-" + std::to_string(key), value);
    if (!set.ok()) {
      ++stats->rejected;  // shed (an injected or out-of-memory store; the service survives)
    } else {
      ++stats->completed;
      stats->latencies.push_back(sched.Now() - (start + due));
      if (++ops % kOpsPerSnapshot == 0) {
        ++stats->offered;
        auto snapshot = co_await db->BgSave("/fleet/redis.rdb");
        if (snapshot.ok()) {
          started[*snapshot] = sched.Now();
          ++inflight;
        } else {
          ++stats->rejected;  // admission EAGAIN or a failed grant mid-fork
        }
      }
    }
    due_s += ExpSample(arrivals, mean_gap_s);
  }
  done = true;
  while (inflight > 0) {
    co_await g.Nanosleep(Microseconds(200));
  }
  (void)co_await g.ThreadJoin(*reaper);
  // Snapshot integrity survived the storm. The BGSAVE child publishes via rename, which is
  // atomic: a readable dump must always parse and checksum, storm or no storm. An absent dump
  // (ENOENT: no BGSAVE ever published) is a result, reported as dump_published = 0. Under
  // chaos the dump may also be unreadable (every BGSAVE or the verify read itself can be the
  // injected victim) — but a TORN published dump is a protocol violation in any mode.
  if (ops >= kOpsPerSnapshot) {
    auto dump = co_await db->VerifyDump("/fleet/redis.rdb");
    if (dump.ok()) {
      UF_CHECK_MSG(dump->entries > 0, "redis dump empty after overload run");
      stats->dump_published = true;
    } else if (dump.code() != Code::kErrNoEnt) {
      UF_CHECK_MSG(p.chaos, "redis dump corrupt after overload run");
    }
  }
}

// --- fleet orchestration ------------------------------------------------------------------------

struct FleetResult {
  ServiceStats faas;
  ServiceStats httpd;
  ServiceStats redis;
  Cycles elapsed = 0;  // go-time -> last service exit
  uint64_t admission_trips = 0;
  uint64_t admission_rejected = 0;
  uint64_t tenant_cap_rejections = 0;
  uint64_t forks = 0;
  uint64_t peak_resident_frames = 0;  // allocator high-water mark over the whole run

  bool operator==(const FleetResult& o) const {
    return faas == o.faas && httpd == o.httpd && redis == o.redis && elapsed == o.elapsed &&
           admission_trips == o.admission_trips && admission_rejected == o.admission_rejected &&
           tenant_cap_rejections == o.tenant_cap_rejections && forks == o.forks &&
           peak_resident_frames == o.peak_resident_frames;
  }
};

struct FleetOptions {
  double rate_multiplier = 1.0;
  uint64_t seed = 1;
  bool admission = true;
  bool chaos = false;
  uint64_t chaos_seed = 0;
};

FleetResult RunFleet(System system, const FleetOptions& opt) {
  SystemConfig sc;
  sc.system = system;
  sc.kernel.layout = FleetLayout();
  sc.kernel.cores = 4;
  sc.kernel.phys_mem_bytes = kFleetPhysMem;

  FleetResult result;
  auto kernel = RunGuestMain(sc, [&result, opt](Guest& g) -> SimTask<void> {
    Kernel& k = g.kernel();
    Scheduler& sched = k.sched();

    // Startup barrier: each service initializes its warm state, reports ready, and blocks on
    // its private go pipe; the watermarks are calibrated against the post-init pool.
    auto ready_pipe = co_await g.Pipe();
    UF_CHECK(ready_pipe.ok());
    struct Svc {
      TenantId tenant;
      double rate;
      ServiceStats* stats;
      int go_r = -1, go_w = -1;
    } services[3] = {
        {kTenantFaas, kSatFaasRate * opt.rate_multiplier, &result.faas},
        {kTenantHttpd, kSatHttpdRate * opt.rate_multiplier, &result.httpd},
        {kTenantRedis, kSatRedisRate * opt.rate_multiplier, &result.redis},
    };
    for (Svc& svc : services) {
      auto go_pipe = co_await g.Pipe();
      UF_CHECK(go_pipe.ok());
      svc.go_r = go_pipe->first;
      svc.go_w = go_pipe->second;
    }

    for (const Svc& svc : services) {
      OpenLoopParams params;
      params.rate_hz = svc.rate;
      params.seed = opt.seed * 1000003 + svc.tenant;
      params.chaos = opt.chaos;
      const int ready_w = ready_pipe->second;
      GuestFn service_fn = [svc, params, ready_w](Guest& sg) -> SimTask<void> {
        sg.SetTenant(svc.tenant);  // every frame this tree touches bills to the tenant
        if (svc.tenant == kTenantFaas) {
          UF_CHECK_MSG(InitializeZygoteRuntime(sg).ok(), "zygote init failed at fleet boot");
        }
        auto buf = sg.Malloc(16);
        UF_CHECK(buf.ok());
        UF_CHECK(sg.StoreAt<uint64_t>(*buf, 0, 1).ok());
        if (svc.tenant == kTenantRedis) {
          // Redis preloads before reporting ready so its DB counts into the calibration.
          UF_CHECK((co_await sg.Write(ready_w, *buf, 1)).ok());
          UF_CHECK((co_await sg.Read(svc.go_r, *buf, 1)).ok());
          co_await RedisService(sg, params, svc.stats);
        } else {
          UF_CHECK((co_await sg.Write(ready_w, *buf, 1)).ok());
          UF_CHECK((co_await sg.Read(svc.go_r, *buf, 1)).ok());
          co_await OpenLoopService(sg, params, svc.stats,
                                   svc.tenant == kTenantFaas ? LaunchFaasExecutor
                                                             : LaunchHttpdConnection);
        }
        co_await sg.Exit(0);
      };
      UF_CHECK_MSG((co_await g.Fork(std::move(service_fn))).ok(), "fleet service fork failed");
    }

    // Wait — redis preload happens before its ready byte, so all three readies mean the
    // pool is at its loaded steady state.
    auto buf = g.Malloc(16);
    UF_CHECK(buf.ok());
    UF_CHECK(g.StoreAt<uint64_t>(*buf, 0, 1).ok());
    for (int i = 0; i < 3; ++i) {
      UF_CHECK((co_await g.Read(ready_pipe->first, *buf, 1)).ok());
    }

    FrameAllocator& frames = k.machine().frames();
    const uint64_t free0 = frames.free_frames();
    if (opt.admission) {
      OverloadConfig oc;
      oc.enabled = true;
      oc.low_watermark = static_cast<uint64_t>(static_cast<double>(free0) * kLowFraction);
      oc.clear_watermark = static_cast<uint64_t>(static_cast<double>(free0) * kClearFraction);
      k.admission().Configure(oc);
      const auto cap =
          static_cast<uint64_t>(static_cast<double>(free0) * kTenantCapFraction);
      frames.SetTenantCap(kTenantFaas, cap);
      frames.SetTenantCap(kTenantHttpd, cap);
      frames.SetTenantCap(kTenantRedis, cap);
    }
    if (opt.chaos) {
      // Chaos x overload: every site armed from go-time on (boot stays clean so the fleet
      // always forms; containment and replay are the properties under test here).
      k.fault_injector().ArmAll(FaultPolicy::Probabilistic(kChaosProbability),
                                opt.chaos_seed);
    }

    const Cycles go = sched.Now();
    for (const Svc& svc : services) {
      UF_CHECK((co_await g.Write(svc.go_w, *buf, 1)).ok());
    }
    for (int i = 0; i < 3; ++i) {
      auto waited = co_await g.Wait();
      UF_CHECK_MSG(waited.ok() && waited->status == 0,
                   "a fleet service died — overload must never kill a coordinator");
    }
    result.elapsed = sched.Now() - go;
    result.admission_trips = k.stats().admission_trips;
    result.admission_rejected = k.stats().admission_rejected;
    result.tenant_cap_rejections = frames.tenant_cap_rejections();
    result.forks = k.stats().forks;
    result.peak_resident_frames = frames.peak_frames();
  });
  UF_CHECK_MSG(kernel->LivePids().empty(), "fleet left zombie uprocs behind");
  UF_CHECK_MSG(kernel->CheckFrameAccounting().ok(), "fleet leaked frames");
  return result;
}

// --- reporting ----------------------------------------------------------------------------------

double PercentileUs(const std::vector<Cycles>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
  return ToMicroseconds(sorted[std::min(rank, sorted.size() - 1)]);
}

uint64_t EnvSeed(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

void OverloadFleet(::benchmark::State& state, System system, bool admission) {
  FleetOptions opt;
  opt.rate_multiplier = static_cast<double>(state.range(0)) / 10.0;
  opt.seed = EnvSeed("UFORK_OVERLOAD_SEED", 1);
  opt.admission = admission;
  const char* chaos_env = std::getenv("UFORK_OVERLOAD_CHAOS_SEED");
  if (chaos_env != nullptr) {
    opt.chaos = true;
    opt.chaos_seed = std::strtoull(chaos_env, nullptr, 10);
  }

  for (auto _ : state) {
    FleetResult r = RunFleet(system, opt);
    if (std::getenv("UFORK_OVERLOAD_REPLAY_CHECK") != nullptr) {
      FleetResult replay = RunFleet(system, opt);
      UF_CHECK_MSG(replay == r,
                   "overload fleet is not a pure function of (system, seed): replay diverged");
    }
    SetIterationCycles(state, r.elapsed);

    std::vector<Cycles> latencies;
    const ServiceStats* all[] = {&r.faas, &r.httpd, &r.redis};
    uint64_t offered = 0, completed = 0, rejected = 0, crashed = 0;
    for (const ServiceStats* s : all) {
      offered += s->offered;
      completed += s->completed;
      rejected += s->rejected;
      crashed += s->crashed;
      latencies.insert(latencies.end(), s->latencies.begin(), s->latencies.end());
    }
    std::sort(latencies.begin(), latencies.end());

    const double window_s = ToSeconds(kWindow);
    state.counters["goodput_rps"] = static_cast<double>(completed) / window_s;
    state.counters["offered_rps"] = static_cast<double>(offered) / window_s;
    state.counters["p50_us"] = PercentileUs(latencies, 0.50);
    state.counters["p99_us"] = PercentileUs(latencies, 0.99);
    state.counters["p999_us"] = PercentileUs(latencies, 0.999);
    state.counters["rejected"] = static_cast<double>(rejected);
    state.counters["crashed"] = static_cast<double>(crashed);
    state.counters["admission_trips"] = static_cast<double>(r.admission_trips);
    state.counters["admission_rejected"] = static_cast<double>(r.admission_rejected);
    state.counters["tenant_cap_rejections"] = static_cast<double>(r.tenant_cap_rejections);
    state.counters["forks"] = static_cast<double>(r.forks);
    state.counters["resident_frames"] = static_cast<double>(r.peak_resident_frames);
    state.counters["dump_published"] = r.redis.dump_published ? 1.0 : 0.0;
  }
}

// Arg is the rate multiplier x10: 10 = saturation, 20 = 2x overload.
#define UF_OVERLOAD(name, ...)                            \
  BENCHMARK_CAPTURE(OverloadFleet, name, __VA_ARGS__)     \
      ->Arg(10)                                           \
      ->Arg(20)                                           \
      ->Iterations(1)                                     \
      ->UseManualTime()                                   \
      ->Unit(::benchmark::kMillisecond)

UF_OVERLOAD(uFork, System::kUfork, /*admission=*/true);
UF_OVERLOAD(CheriBSD, System::kCheriBsd, /*admission=*/true);
UF_OVERLOAD(Nephele, System::kNephele, /*admission=*/true);
// The ablation the subsystem exists for: same storm, no admission control — children die of
// uncontained ENOMEM instead of requests being shed at the front door.
UF_OVERLOAD(uFork_NoAdmission, System::kUfork, /*admission=*/false);

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
