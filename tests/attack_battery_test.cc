// Adversarial capability-attack battery + differential fork fuzzing (DESIGN.md §4.14).
//
//   - VerdictsIdenticalAcrossBackendsPagingAndCompaction: the whole battery — forgery,
//     bounds walks, sealed-cap misuse, tag laundering through pipe/mq/VFS/fork/shm — produces
//     the canonical per-attack verdict (contained SIGSEGV with the expected fault code, or a
//     clean errno-only exit) and byte-identical traces + StateDigest across
//     μFork CoPA/CoA/Full, MAS and VM-clone, × {eager, demand paging} × {compaction off/on}.
//   - UafThroughRevocation*: a capability stashed into a victim's region and raced against
//     region teardown is *revoked* (deref faults kFaultTag) when quarantine_freed_regions is
//     on, and flagged unsafe by the harness (stale tag survives the free) when it is off.
//   - ChaosAttackSoak: the battery under every armed injection site replays bit-identically
//     per seed, and the structure-aware fork server survives chaos fork refusals (ENOMEM) and
//     admission pushback (EAGAIN) — counting fork_failures, never aborting the host.
//   - Fuzz bucketing: structure-aware crashes bucket by (fault kind, faulting op) with a
//     replayable first reproducer surfaced in the stats report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/forkfuzz.h"
#include "src/attack/attack.h"
#include "src/attack/differential.h"
#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

constexpr int kCrashExit = 139;
constexpr double kChaosProbability = 0.02;

KernelConfig BatteryConfig(bool demand_paging, bool compact) {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  config.demand_paging = demand_paging;
  if (compact) {
    config.compact_budget_pages = 4;
    config.compact_step_interval = 2'000;
    config.quarantine_freed_regions = true;
  }
  return config;
}

struct SystemRow {
  const char* name;
  SystemFactory factory;
  bool supports_compaction;
};

std::vector<SystemRow> Systems() {
  std::vector<SystemRow> rows;
  rows.push_back({"ufork-copa",
                  [](KernelConfig c) {
                    c.strategy = ForkStrategy::kCopa;
                    return MakeUforkKernel(c);
                  },
                  true});
  rows.push_back({"ufork-coa",
                  [](KernelConfig c) {
                    c.strategy = ForkStrategy::kCoa;
                    return MakeUforkKernel(c);
                  },
                  true});
  rows.push_back({"ufork-full",
                  [](KernelConfig c) {
                    c.strategy = ForkStrategy::kFull;
                    return MakeUforkKernel(c);
                  },
                  true});
  rows.push_back({"mas", [](KernelConfig c) { return MakeMasKernel(c); }, false});
  rows.push_back({"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c); }, false});
  return rows;
}

uint64_t ExpectedFatalCount() {
  uint64_t n = 0;
  for (const BatteryAttack& attack : AttackBattery()) {
    if (attack.expected_fatal != Code::kOk) {
      ++n;
    }
  }
  return n;
}

// Every attack's guest-visible outcome must be the canonical one: the expected contained
// fault (status 139 + the fault code in the flushed trace) or a clean errno-only exit.
void ExpectCanonicalVerdicts(const CampaignResult& result) {
  const std::vector<BatteryAttack>& battery = AttackBattery();
  ASSERT_EQ(result.verdicts.size(), battery.size()) << result.label;
  for (size_t i = 0; i < battery.size(); ++i) {
    const BatteryAttack& attack = battery[i];
    const AttackVerdict& verdict = result.verdicts[i];
    SCOPED_TRACE(result.label + " / " + attack.name);
    EXPECT_FALSE(verdict.spawn_failed);
    EXPECT_FALSE(verdict.trace_lost) << "the trace must flush before the trap";
    if (attack.expected_fatal == Code::kOk) {
      EXPECT_EQ(verdict.status, 0);
      EXPECT_FALSE(verdict.trace.fatal());
    } else {
      EXPECT_EQ(verdict.status, kCrashExit) << "contained SIGSEGV, never a host abort";
      EXPECT_EQ(verdict.trace.fatal_code, attack.expected_fatal);
    }
  }
}

TEST(AttackBattery, VerdictsIdenticalAcrossBackendsPagingAndCompaction) {
  const uint64_t expected_faults = ExpectedFatalCount();
  std::optional<CampaignResult> reference;
  std::map<std::string, Cycles> eager_elapsed;
  for (const SystemRow& sys : Systems()) {
    for (const bool demand : {false, true}) {
      for (const bool compact : {false, true}) {
        if (compact && !sys.supports_compaction) {
          continue;
        }
        const std::string label = std::string(sys.name) + (demand ? "/demand" : "/eager") +
                                  (compact ? "/compact" : "");
        SCOPED_TRACE(label);
        CampaignResult result =
            RunBatteryCampaign(sys.factory, BatteryConfig(demand, compact), label);
        ExpectCanonicalVerdicts(result);
        EXPECT_EQ(result.faults_contained, expected_faults)
            << "the kernel fault ledger must move in lockstep with contained crashes";
        if (!demand && !compact) {
          eager_elapsed[sys.name] = result.elapsed;
        }
        if (!reference.has_value()) {
          reference = std::move(result);
          continue;
        }
        const std::vector<std::string> diffs = DiffCampaigns(*reference, result);
        for (const std::string& diff : diffs) {
          ADD_FAILURE() << diff;
        }
        EXPECT_EQ(reference->digest, result.digest) << "StateDigest diverged";
      }
    }
  }
  // Campaign virtual time covers the whole run: with one fork per attack, the backends order
  // as in Fig. 8.
  EXPECT_LT(eager_elapsed["ufork-copa"], eager_elapsed["mas"]);
  EXPECT_LT(eager_elapsed["mas"], eager_elapsed["vmclone"]);
}

// Sanity on the trace wire format the children flush and the fuzzer mutates.
TEST(AttackBattery, TraceAndProgramRoundTrip) {
  AttackTrace trace;
  trace.steps.push_back({static_cast<uint8_t>(AttackOp::kPipeLaunder), 0, 3});
  trace.steps.push_back(
      {static_cast<uint8_t>(AttackOp::kBoundsLoadHigh),
       static_cast<int32_t>(Code::kFaultBounds), 0});
  trace.fatal_step = 1;
  trace.fatal_code = Code::kFaultBounds;
  const AttackTrace decoded = AttackTrace::Decode(trace.Encode());
  EXPECT_EQ(decoded.Encode(), trace.Encode());
  EXPECT_EQ(decoded.fatal_step, 1u);
  EXPECT_EQ(decoded.fatal_code, Code::kFaultBounds);

  const AttackProgram program = {{AttackOp::kForgeRawBytes, 7}, {AttackOp::kDerefForged, 0}};
  const AttackProgram round = DecodeAttackProgram(EncodeAttackProgram(program));
  ASSERT_EQ(round.size(), program.size());
  EXPECT_EQ(round[0].op, program[0].op);
  EXPECT_EQ(round[1].arg, program[1].arg);
  // Any byte string decodes (opcodes wrap modulo kNumOps) — the fuzzer's totality property.
  const std::byte junk[] = {std::byte{0xFE}, std::byte{0x41}, std::byte{0x99}, std::byte{0x07}};
  const AttackProgram wild = DecodeAttackProgram(junk);
  ASSERT_EQ(wild.size(), 2u);
  EXPECT_LT(static_cast<size_t>(wild[0].op), kNumAttackOps);
  EXPECT_LT(static_cast<size_t>(wild[1].op), kNumAttackOps);
}

// --- UAF through the quarantine/revocation window --------------------------------------------

TEST(AttackBattery, UafThroughRevocationCaughtWithQuarantine) {
  const UafCampaignResult result = RunUafRevocationCampaign(/*quarantine_on=*/true);
  EXPECT_TRUE(result.tag_at_stash) << "the stash must be live while the victim still is";
  EXPECT_TRUE(result.caught());
  EXPECT_FALSE(result.unsafe());
  EXPECT_FALSE(result.tag_after_free) << "the sweep must revoke the stashed capability";
  EXPECT_EQ(result.deref_code, Code::kFaultTag);
  EXPECT_GE(result.caps_revoked, 1u);
  EXPECT_TRUE(result.invariant_ok);
}

TEST(AttackBattery, UafThroughRevocationUnsafeWithoutQuarantine) {
  const UafCampaignResult result = RunUafRevocationCampaign(/*quarantine_on=*/false);
  EXPECT_TRUE(result.tag_at_stash);
  EXPECT_TRUE(result.unsafe()) << "without quarantine the stale authority must survive — the "
                                  "differential harness flags exactly this";
  EXPECT_FALSE(result.caught());
  EXPECT_TRUE(result.tag_after_free);
  EXPECT_EQ(result.caps_revoked, 0u) << "no sweeper ran, nothing was revoked";
}

// --- chaos × attack cross-product soak -------------------------------------------------------

std::vector<uint64_t> SoakSeeds() {
  std::vector<uint64_t> seeds;
  for (uint64_t s = 1; s <= 8; ++s) {
    seeds.push_back(s);
  }
  if (const char* extra = std::getenv("UFORK_CHAOS_SEEDS"); extra != nullptr) {
    const std::string spec(extra);
    size_t pos = 0;
    while (pos < spec.size()) {
      size_t comma = spec.find(',', pos);
      if (comma == std::string::npos) comma = spec.size();
      const std::string token = spec.substr(pos, comma - pos);
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
      pos = comma + 1;
    }
  }
  return seeds;
}

CampaignResult RunChaosBattery(uint64_t seed) {
  const SystemFactory factory = [](KernelConfig c) { return MakeUforkKernel(c); };
  return RunBatteryCampaign(
      factory, BatteryConfig(/*demand_paging=*/true, /*compact=*/true),
      "ufork-chaos-" + std::to_string(seed), [seed](Kernel& kernel) {
        kernel.fault_injector().ArmAll(FaultPolicy::Probabilistic(kChaosProbability), seed);
      });
}

TEST(ChaosAttackSoak, BatteryReplaysBitIdenticallyPerSeed) {
  for (const uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CampaignResult first = RunChaosBattery(seed);
    const CampaignResult replay = RunChaosBattery(seed);
    // Under chaos an attack may be refused with an errno before it reaches its fault — a
    // legitimate outcome. What must hold: the run is a pure function of the seed, and every
    // child either exits cleanly or dies of a *contained* SIGSEGV.
    const std::vector<std::string> diffs = DiffCampaigns(first, replay);
    for (const std::string& diff : diffs) {
      ADD_FAILURE() << "seed " << seed << " replay diverged: " << diff;
    }
    EXPECT_EQ(first.digest, replay.digest);
    ASSERT_EQ(first.verdicts.size(), AttackBattery().size());
    for (const AttackVerdict& verdict : first.verdicts) {
      if (!verdict.spawn_failed) {
        EXPECT_TRUE(verdict.status == 0 || verdict.status == kCrashExit)
            << verdict.attack << ": status " << verdict.status;
      }
    }
  }
}

// --- fork-server robustness + crash bucketing ------------------------------------------------

struct FuzzRun {
  FuzzStats stats;
  uint64_t faults_contained = 0;
  bool finished = false;
};

FuzzRun RunFuzzCampaign(uint64_t seed, uint64_t iterations, bool arm_chaos,
                        const OverloadConfig* overload = nullptr) {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  auto kernel = MakeUforkKernel(config);
  FuzzRun run;
  FuzzRun* out = &run;
  GuestFn driver = [out, seed, iterations](Guest& g) -> SimTask<void> {
    const FuzzTarget target = MakeAttackBatteryTarget();
    const Result<void> initialized = target.initialize(g);
    if (!initialized.ok()) {
      co_return;
    }
    co_await RunForkServer(g, target, iterations, seed, &out->stats);
    out->finished = true;
  };
  auto pid = kernel->Spawn(MakeGuestEntry(std::move(driver)), "fuzz-server");
  EXPECT_TRUE(pid.ok());
  if (arm_chaos) {
    kernel->fault_injector().ArmAll(FaultPolicy::Probabilistic(kChaosProbability), seed);
  }
  if (overload != nullptr) {
    kernel->admission().Configure(*overload);
  }
  kernel->Run();
  kernel->fault_injector().DisarmAll();
  run.faults_contained = kernel->stats().faults_contained;
  return run;
}

TEST(ForkFuzz, StructureAwareCampaignBucketsByFaultKindAndSite) {
  const FuzzRun run = RunFuzzCampaign(/*seed=*/11, /*iterations=*/60, /*arm_chaos=*/false);
  ASSERT_TRUE(run.finished);
  EXPECT_EQ(run.stats.executions, 60u);
  EXPECT_GT(run.stats.crashes, 0u) << "battery-seeded mutation must find the faults";
  EXPECT_LT(run.stats.crashes, run.stats.executions) << "and some clean runs";
  EXPECT_EQ(run.stats.fork_failures, 0u);
  EXPECT_GE(run.stats.buckets.size(), 2u)
      << "distinct (fault kind, op) pairs must land in distinct buckets";
  for (const auto& [key, bucket] : run.stats.buckets) {
    EXPECT_GT(bucket.count, 0u);
    EXPECT_EQ(bucket.first_seed, 11u);
    EXPECT_FALSE(bucket.first_input.empty()) << "every bucket carries its first reproducer";
  }
  const std::string report = run.stats.Report();
  EXPECT_NE(report.find("fuzz: execs=60"), std::string::npos) << report;
  EXPECT_NE(report.find("replay: seed=11"), std::string::npos) << report;
  EXPECT_NE(report.find("input="), std::string::npos) << report;
}

TEST(ForkFuzz, CampaignIsDeterministicPerSeed) {
  const FuzzRun first = RunFuzzCampaign(/*seed=*/7, /*iterations=*/40, /*arm_chaos=*/false);
  const FuzzRun replay = RunFuzzCampaign(/*seed=*/7, /*iterations=*/40, /*arm_chaos=*/false);
  EXPECT_EQ(first.stats.executions, replay.stats.executions);
  EXPECT_EQ(first.stats.crashes, replay.stats.crashes);
  EXPECT_EQ(first.stats.elapsed, replay.stats.elapsed);
  EXPECT_EQ(first.stats.Report(), replay.stats.Report());
  EXPECT_EQ(first.faults_contained, replay.faults_contained);
}

TEST(ForkFuzz, ForkServerSurvivesChaosWithoutHostAbort) {
  for (const uint64_t seed : {31ull, 32ull, 33ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FuzzRun first = RunFuzzCampaign(seed, /*iterations=*/40, /*arm_chaos=*/true);
    // Survival: the server finishes its campaign no matter what the injector refused. Any
    // fork the injector failed is on the ledger, and skipped cases never count as executed.
    ASSERT_TRUE(first.finished) << "a refused fork must never abort the campaign";
    EXPECT_LE(first.stats.executions, 40u);
    const FuzzRun replay = RunFuzzCampaign(seed, /*iterations=*/40, /*arm_chaos=*/true);
    EXPECT_EQ(first.stats.executions, replay.stats.executions);
    EXPECT_EQ(first.stats.crashes, replay.stats.crashes);
    EXPECT_EQ(first.stats.fork_failures, replay.stats.fork_failures);
    EXPECT_EQ(first.stats.Report(), replay.stats.Report());
  }
}

TEST(ForkFuzz, ForkServerSurvivesAdmissionPushback) {
  // Rejecting admission: watermarks above the total frame count mean every fork is refused
  // with EAGAIN from the first case on. The server must retry, give up case by case, and
  // finish with an intact ledger, never a UF_CHECK abort.
  OverloadConfig overload;
  overload.enabled = true;
  overload.low_watermark = UINT64_MAX / 2;
  overload.clear_watermark = UINT64_MAX / 2;
  const FuzzRun run =
      RunFuzzCampaign(/*seed=*/5, /*iterations=*/10, /*arm_chaos=*/false, &overload);
  ASSERT_TRUE(run.finished);
  EXPECT_EQ(run.stats.executions, 0u) << "every fork was refused";
  EXPECT_GT(run.stats.fork_failures, 0u);
  EXPECT_EQ(run.stats.crashes, 0u);
}

}  // namespace
}  // namespace ufork
