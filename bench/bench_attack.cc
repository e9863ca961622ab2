// Attack-battery campaign cost (DESIGN.md §4.14, EXPERIMENTS.md "Attack battery").
//
// Runs the full adversarial battery — one fork + trace pipe + contained fault per attack —
// as one iteration, per backend × {eager, demand paging}. Virtual time per campaign is the
// figure of merit: the battery is also the chaos-soak inner loop, so its cost bounds how many
// chaos × attack schedules a CI soak can explore. Counters carry the invariants the bench
// re-proves every iteration (deterministically, so a drift is a real behaviour change):
//
//   contained     per-campaign contained-SIGSEGV count (== battery attacks with a fatal verdict)
//   digest_lo32   low 32 bits of the campaign StateDigest — must be identical across every
//                 backend/paging row of this bench (the differential assertion, visible in the
//                 report without running the test suite)
//
// The attack.* rows of bench/gates.py check both counters across the six rows, and that
// campaign virtual time orders μFork < MAS < VM clone.
#include <memory>

#include "bench/bench_common.h"
#include "src/attack/differential.h"

namespace ufork {
namespace bench {
namespace {

KernelConfig CampaignConfig(bool demand_paging) {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  config.demand_paging = demand_paging;
  return config;
}

void RunCampaignBench(::benchmark::State& state, const SystemFactory& factory,
                      const char* label) {
  const bool demand = state.range(0) != 0;
  for (auto _ : state) {
    CampaignResult result = RunBatteryCampaign(factory, CampaignConfig(demand), label);
    SetIterationCycles(state, result.elapsed);
    state.counters["contained"] = static_cast<double>(result.faults_contained);
    state.counters["digest_lo32"] = static_cast<double>(result.digest & 0xFFFFFFFFull);
  }
}

void BM_AttackBattery_Ufork(::benchmark::State& state) {
  RunCampaignBench(
      state, [](KernelConfig c) { return MakeUforkKernel(std::move(c)); }, "ufork");
}
void BM_AttackBattery_Mas(::benchmark::State& state) {
  RunCampaignBench(
      state, [](KernelConfig c) { return MakeMasKernel(std::move(c)); }, "mas");
}
void BM_AttackBattery_VmClone(::benchmark::State& state) {
  RunCampaignBench(
      state, [](KernelConfig c) { return MakeVmCloneKernel(std::move(c)); }, "vmclone");
}

BENCHMARK(BM_AttackBattery_Ufork)->Arg(0)->Arg(1)->Iterations(2)->UseManualTime();
BENCHMARK(BM_AttackBattery_Mas)->Arg(0)->Arg(1)->Iterations(2)->UseManualTime();
BENCHMARK(BM_AttackBattery_VmClone)->Arg(0)->Arg(1)->Iterations(2)->UseManualTime();

}  // namespace
}  // namespace bench
}  // namespace ufork

BENCHMARK_MAIN();
