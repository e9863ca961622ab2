#include "src/attack/differential.h"

#include <utility>

#include "src/attack/state_digest.h"
#include "src/baseline/system.h"
#include "src/ufork/revocation.h"

namespace ufork {
namespace {

constexpr uint64_t kTraceBufBytes = 512;

// Parks the caller on a named message queue until a waker posts one byte.
SimTask<void> Park(Guest& g, const std::string& name) {
  auto fd = co_await g.MqOpen(name, /*create=*/true);
  if (!fd.ok()) co_return;
  Result<Capability> buf = g.Malloc(16);
  if (!buf.ok()) co_return;
  (void)co_await g.Read(*fd, *buf, 1);
  (void)co_await g.Close(*fd);
}

GuestFn MakeWaker(std::string queue) {
  GuestFn fn = [queue](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen(queue, /*create=*/true);
    if (!fd.ok()) co_return;
    Result<Capability> buf = g.Malloc(16);
    if (!buf.ok()) co_return;
    (void)co_await g.Write(*fd, *buf, 1);
  };
  return fn;
}

// Folds the calling μprocess's guest-visible survivor state: registers (address-free) and the
// GOT capability table up to its first out-of-range slot.
uint64_t FoldSurvivorState(Guest& g) {
  StateDigest d;
  d.MixRegisters(g.uproc().regs, g.base());
  for (int slot = 0;; ++slot) {
    Result<Capability> c = g.GotLoad(slot);
    if (!c.ok()) {
      d.Mix(static_cast<uint64_t>(slot));  // table length is itself guest-visible state
      break;
    }
    d.MixCap(*c, g.base());
  }
  return d.value;
}

}  // namespace

CampaignResult RunBatteryCampaign(const SystemFactory& factory, KernelConfig config,
                                  std::string label,
                                  const std::function<void(Kernel&)>& on_spawned) {
  std::unique_ptr<Kernel> kernel = factory(std::move(config));
  CampaignResult result;
  result.label = std::move(label);
  CampaignResult* out = &result;
  uint64_t survivor_digest = 0;
  uint64_t* survivor_out = &survivor_digest;

  GuestFn driver = [out, survivor_out](Guest& g) -> SimTask<void> {
    for (const BatteryAttack& attack : AttackBattery()) {
      AttackVerdict verdict;
      verdict.attack = attack.name;
      auto pipe = co_await g.Pipe();
      if (!pipe.ok()) {
        verdict.spawn_failed = true;
        out->verdicts.push_back(std::move(verdict));
        continue;
      }
      const auto [rfd, wfd] = *pipe;
      AttackProgram program = attack.program;
      GuestFn child_fn = [program, wfd](Guest& cg) -> SimTask<void> {
        co_await RunAttackChild(cg, program, wfd);
      };
      auto child = co_await g.Fork(std::move(child_fn));
      if (!child.ok()) {
        (void)co_await g.Close(rfd);
        (void)co_await g.Close(wfd);
        verdict.spawn_failed = true;
        out->verdicts.push_back(std::move(verdict));
        continue;
      }
      (void)co_await g.Close(wfd);  // so the drain below EOFs once the child is gone
      std::vector<std::byte> wire;
      if (Result<Capability> buf = g.Malloc(kTraceBufBytes); buf.ok()) {
        for (;;) {
          auto n = co_await g.Read(rfd, *buf, kTraceBufBytes);
          if (!n.ok() || *n == 0) break;
          Result<std::vector<std::byte>> bytes = g.FetchBytes(*buf, static_cast<uint64_t>(*n));
          if (!bytes.ok()) break;
          wire.insert(wire.end(), bytes->begin(), bytes->end());
        }
        (void)g.Free(*buf);
      }
      (void)co_await g.Close(rfd);
      auto waited = co_await g.Wait();
      verdict.status = waited.ok() ? waited->status : -1;
      if (wire.empty()) {
        verdict.trace_lost = true;
      } else {
        verdict.trace = AttackTrace::Decode(wire);
      }
      out->verdicts.push_back(std::move(verdict));
    }
    *survivor_out = FoldSurvivorState(g);
  };

  auto pid = kernel->Spawn(MakeGuestEntry(std::move(driver)), "attack-driver");
  if (pid.ok()) {
    if (on_spawned) {
      on_spawned(*kernel);
    }
    kernel->Run();
  }
  result.faults_contained = kernel->stats().faults_contained;
  result.elapsed = kernel->sched().CompletionTime();

  StateDigest d;
  for (const AttackVerdict& v : result.verdicts) {
    d.MixString(v.attack);
    d.Mix(static_cast<uint64_t>(static_cast<int64_t>(v.status)));
    d.Mix(v.spawn_failed ? 1 : 0);
    d.Mix(v.trace_lost ? 1 : 0);
    const std::vector<std::byte> wire = v.trace.Encode();
    d.MixBytes(wire);
  }
  d.Mix(survivor_digest);
  result.digest = d.value;
  return result;
}

std::vector<std::string> DiffCampaigns(const CampaignResult& a, const CampaignResult& b) {
  std::vector<std::string> diffs;
  auto tag = [&](const std::string& what) {
    diffs.push_back(a.label + " vs " + b.label + ": " + what);
  };
  if (a.verdicts.size() != b.verdicts.size()) {
    tag("verdict count " + std::to_string(a.verdicts.size()) + " != " +
        std::to_string(b.verdicts.size()));
    return diffs;
  }
  for (size_t i = 0; i < a.verdicts.size(); ++i) {
    const AttackVerdict& va = a.verdicts[i];
    const AttackVerdict& vb = b.verdicts[i];
    if (va.attack != vb.attack) {
      tag("attack order diverged at #" + std::to_string(i));
      continue;
    }
    if (va.status != vb.status) {
      tag(va.attack + ": status " + std::to_string(va.status) + " != " +
          std::to_string(vb.status));
    }
    if (va.spawn_failed != vb.spawn_failed || va.trace_lost != vb.trace_lost) {
      tag(va.attack + ": spawn/trace availability diverged");
    }
    if (va.trace.Encode() != vb.trace.Encode()) {
      tag(va.attack + ": trace bytes diverged (fatal " + CodeName(va.trace.fatal_code) +
          " vs " + CodeName(vb.trace.fatal_code) + ")");
    }
  }
  if (a.digest != b.digest) {
    tag("state digest diverged");
  }
  return diffs;
}

UafCampaignResult RunUafRevocationCampaign(bool quarantine_on) {
  KernelConfig config;
  config.layout.text_size = 32 * kKiB;
  config.layout.rodata_size = 8 * kKiB;
  config.layout.got_size = 4 * kKiB;
  config.layout.data_size = 8 * kKiB;
  config.layout.heap_size = 256 * kKiB;
  config.layout.stack_size = 32 * kKiB;
  config.layout.tls_size = 4 * kKiB;
  config.layout.mmap_size = 64 * kKiB;
  config.compact_budget_pages = 4;
  config.compact_step_interval = 2'000;
  config.quarantine_freed_regions = quarantine_on;
  auto kernel = MakeUforkKernel(config);
  kernel->sched().set_allow_blocked_exit(true);

  UafCampaignResult result;
  result.quarantine_on = quarantine_on;
  UafCampaignResult* out = &result;
  uint64_t victim_base = 0;
  uint64_t* victim_base_ptr = &victim_base;

  // The attacker stashes a capability into the victim's (still live) region, parks across the
  // victim's teardown — carrying the stash through its GOT, μFork discipline — then reloads
  // and dereferences the stale authority.
  GuestFn attacker = [out, victim_base_ptr](Guest& g) -> SimTask<void> {
    co_await Park(g, "/mq/uaf-stash");
    Result<Capability> slot = g.Malloc(32);
    if (!slot.ok()) co_return;
    const Capability stash = Capability::Root(*victim_base_ptr + 0x100, 64, kPermAllData);
    if (!g.StoreCap(*slot, slot->base(), stash).ok()) co_return;
    Result<Capability> l1 = g.LoadCap(*slot, slot->base());
    out->tag_at_stash = l1.ok() && l1->tag();
    if (!g.GotStore(kGotSlotAttackState, *slot).ok()) co_return;
    co_await Park(g, "/mq/uaf-deref");
    Result<Capability> slot2 = g.GotLoad(kGotSlotAttackState);
    if (!slot2.ok()) co_return;
    Result<Capability> l2 = g.LoadCap(*slot2, slot2->base());
    if (!l2.ok()) co_return;
    out->tag_after_free = l2->tag();
    out->deref_code = g.LoadAt<uint64_t>(*l2, 0).code();
  };
  GuestFn victim = [](Guest& g) -> SimTask<void> {
    co_await Park(g, "/mq/uaf-victim");
    co_await g.Exit(0);
  };

  auto a = kernel->Spawn(MakeGuestEntry(std::move(attacker)), "uaf-attacker");
  auto v = kernel->Spawn(MakeGuestEntry(std::move(victim)), "uaf-victim");
  if (!a.ok() || !v.ok()) {
    return result;
  }
  kernel->Run();  // both park

  Uproc* vp = kernel->FindUproc(*v);
  if (vp == nullptr) {
    return result;
  }
  victim_base = vp->base;

  // Phase 1: the attacker stashes while the victim's region is still live.
  (void)kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/uaf-stash")), "wake-stash");
  kernel->Run();
  // Phase 2: the victim exits. With quarantine on, teardown quarantines the region and the
  // churn hook starts the sweeper, which walks live tagged frames — the attacker's heap and
  // GOT included — revoking the stash. With quarantine off, the region is freed (and
  // re-grantable) immediately; nothing revokes anything.
  (void)kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/uaf-victim")), "wake-victim");
  kernel->Run();
  if (quarantine_on) {
    SweepQuarantineToCompletion(*kernel);
  }
  // Phase 3: the attacker wakes and uses the stale stash. The waker spawned here may even be
  // re-granted the victim's old slot (first-fit) — the strongest form of the hazard.
  (void)kernel->Spawn(MakeGuestEntry(MakeWaker("/mq/uaf-deref")), "wake-deref");
  kernel->Run();

  result.caps_revoked = kernel->stats().caps_revoked;
  result.invariant_ok = CheckRevocationInvariant(*kernel).ok();
  return result;
}

}  // namespace ufork
