#include "src/attack/attack.h"

#include <array>
#include <utility>

#include "src/guest/gvector.h"
#include "src/kernel/vfs.h"

namespace ufork {
namespace {

constexpr uint64_t kSlotBytes = 32;   // forgery slot: two capability granules
constexpr uint64_t kProbeBytes = 48;  // bounds-probe allocation (three granules)

// Detail-byte bits for ops that reload a capability after mangling/transport.
constexpr uint8_t kDetailTag = 0x1;          // the reloaded capability carried a valid tag
constexpr uint8_t kDetailBytesIntact = 0x2;  // the data plane survived the transfer unchanged

bool IsFaultCode(Code code) {
  return code >= Code::kFaultTag && code <= Code::kFaultNotPresent;
}

void PutU32(std::vector<std::byte>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(std::span<const std::byte> bytes, size_t off) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(std::to_integer<uint8_t>(bytes[off + i])) << (8 * i);
  }
  return v;
}

}  // namespace

const char* AttackOpName(AttackOp op) {
  switch (op) {
    case AttackOp::kForgeRawBytes: return "forge-raw-bytes";
    case AttackOp::kClobberCapByte: return "clobber-cap-byte";
    case AttackOp::kDerefForged: return "deref-forged";
    case AttackOp::kBoundsLoadHigh: return "bounds-load-high";
    case AttackOp::kBoundsLoadLow: return "bounds-load-low";
    case AttackOp::kBoundsStoreHigh: return "bounds-store-high";
    case AttackOp::kGvectorEscape: return "gvector-escape";
    case AttackOp::kSentryDeref: return "sentry-deref";
    case AttackOp::kSentryRetag: return "sentry-retag";
    case AttackOp::kSealNoPerm: return "seal-no-perm";
    case AttackOp::kUnsealWrong: return "unseal-wrong";
    case AttackOp::kPipeLaunder: return "pipe-launder";
    case AttackOp::kMqLaunder: return "mq-launder";
    case AttackOp::kVfsLaunder: return "vfs-launder";
    case AttackOp::kForkLaunder: return "fork-launder";
    case AttackOp::kShmStoreCap: return "shm-storecap";
    case AttackOp::kGotOutOfRange: return "got-out-of-range";
    case AttackOp::kUafStash: return "uaf-stash";
    case AttackOp::kNumOps: break;
  }
  return "unknown";
}

std::vector<std::byte> AttackTrace::Encode() const {
  // [fatal_step u32][fatal_code i32][count u32] then 6 bytes per step [op][code i32][detail].
  std::vector<std::byte> out;
  out.reserve(12 + steps.size() * 6);
  PutU32(out, fatal_step);
  PutU32(out, static_cast<uint32_t>(static_cast<int32_t>(fatal_code)));
  PutU32(out, static_cast<uint32_t>(steps.size()));
  for (const StepOutcome& s : steps) {
    out.push_back(static_cast<std::byte>(s.op));
    PutU32(out, static_cast<uint32_t>(s.code));
    out.push_back(static_cast<std::byte>(s.detail));
  }
  return out;
}

AttackTrace AttackTrace::Decode(std::span<const std::byte> bytes) {
  AttackTrace trace;
  if (bytes.size() < 12) {
    return trace;
  }
  trace.fatal_step = GetU32(bytes, 0);
  trace.fatal_code = static_cast<Code>(static_cast<int32_t>(GetU32(bytes, 4)));
  const uint32_t count = GetU32(bytes, 8);
  size_t off = 12;
  for (uint32_t i = 0; i < count && off + 6 <= bytes.size(); ++i, off += 6) {
    StepOutcome s;
    s.op = std::to_integer<uint8_t>(bytes[off]);
    s.code = static_cast<int32_t>(GetU32(bytes, off + 1));
    s.detail = std::to_integer<uint8_t>(bytes[off + 5]);
    trace.steps.push_back(s);
  }
  return trace;
}

std::vector<std::byte> EncodeAttackProgram(const AttackProgram& program) {
  std::vector<std::byte> out;
  out.reserve(program.size() * 2);
  for (const AttackStep& step : program) {
    out.push_back(static_cast<std::byte>(step.op));
    out.push_back(static_cast<std::byte>(step.arg));
  }
  return out;
}

AttackProgram DecodeAttackProgram(std::span<const std::byte> bytes) {
  AttackProgram program;
  program.reserve(bytes.size() / 2);
  for (size_t i = 0; i + 1 < bytes.size(); i += 2) {
    AttackStep step;
    step.op = static_cast<AttackOp>(std::to_integer<uint8_t>(bytes[i]) % kNumAttackOps);
    step.arg = std::to_integer<uint8_t>(bytes[i + 1]);
    program.push_back(step);
  }
  return program;
}

SimTask<AttackTrace> ExecuteAttackProgram(Guest& g, AttackProgram program,
                                          uint64_t uaf_target_va) {
  AttackTrace trace;
  Capability slot;    // forgery slot (lazily allocated)
  Capability probe;   // valid data allocation the attacks mangle copies of
  Capability loaded;  // whatever the last forge/launder op reloaded (untagged by default)

  // Lazy working-set allocation. An allocation refusal (e.g. chaos-injected ENOMEM) is an
  // errno outcome for the step, not a crash — the program continues.
  auto ensure_slot = [&]() -> Code {
    if (slot.tag()) return Code::kOk;
    Result<Capability> r = g.Malloc(kSlotBytes);
    if (!r.ok()) return r.code();
    slot = *r;
    return Code::kOk;
  };
  auto ensure_probe = [&]() -> Code {
    if (probe.tag()) return Code::kOk;
    Result<Capability> r = g.Malloc(kProbeBytes);
    if (!r.ok()) return r.code();
    probe = *r;
    return Code::kOk;
  };
  // Shared tail for the launder ops: reload the transported granule as a capability, record
  // its tag + byte integrity, then dereference it — the fatal proof the tag did not survive.
  auto reload_and_deref = [&](const Capability& dst, const Capability& src, uint8_t& detail,
                              Code& code) {
    Result<Capability> lr = g.LoadCap(dst, dst.base());
    if (!lr.ok()) {
      code = lr.code();
      return;
    }
    loaded = *lr;
    detail = loaded.tag() ? kDetailTag : 0;
    std::array<std::byte, kCapSize> sent{};
    std::array<std::byte, kCapSize> got{};
    if (g.ReadBytes(src, src.base(), sent).ok() && g.ReadBytes(dst, dst.base(), got).ok() &&
        sent == got) {
      detail |= kDetailBytesIntact;
    }
    code = g.Load<uint64_t>(loaded, loaded.address()).code();
  };

  for (size_t i = 0; i < program.size(); ++i) {
    const AttackStep step = program[i];
    Code code = Code::kOk;
    uint8_t detail = 0;
    switch (step.op) {
      case AttackOp::kForgeRawBytes: {
        if ((code = ensure_slot()) != Code::kOk) break;
        std::array<std::byte, kCapSize> raw;
        for (size_t b = 0; b < raw.size(); ++b) {
          raw[b] = static_cast<std::byte>(static_cast<uint8_t>(step.arg + 0x41 * b));
        }
        if (Result<void> w = g.WriteBytes(slot, slot.base(), raw); !w.ok()) {
          code = w.code();
          break;
        }
        Result<Capability> r = g.LoadCap(slot, slot.base());
        if (!r.ok()) {
          code = r.code();
          break;
        }
        loaded = *r;
        detail = loaded.tag() ? kDetailTag : 0;
        break;
      }
      case AttackOp::kClobberCapByte: {
        if ((code = ensure_slot()) != Code::kOk) break;
        if ((code = ensure_probe()) != Code::kOk) break;
        if (Result<void> sc = g.StoreCap(slot, slot.base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        const uint64_t byte_off = step.arg % kCapSize;
        if (Result<void> st = g.Store<uint8_t>(slot, slot.base() + byte_off, 0x5A); !st.ok()) {
          code = st.code();
          break;
        }
        Result<Capability> r = g.LoadCap(slot, slot.base());
        if (!r.ok()) {
          code = r.code();
          break;
        }
        loaded = *r;
        detail = loaded.tag() ? kDetailTag : 0;
        break;
      }
      case AttackOp::kDerefForged: {
        detail = loaded.tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(loaded, loaded.address()).code();
        break;
      }
      case AttackOp::kBoundsLoadHigh: {
        if ((code = ensure_probe()) != Code::kOk) break;
        code = g.Load<uint64_t>(probe, probe.top() + (step.arg % 8) * 8).code();
        break;
      }
      case AttackOp::kBoundsLoadLow: {
        if ((code = ensure_probe()) != Code::kOk) break;
        // The tinyalloc block header lives one granule below the payload base.
        code = g.Load<uint64_t>(probe, probe.base() - kCapSize).code();
        break;
      }
      case AttackOp::kBoundsStoreHigh: {
        if ((code = ensure_probe()) != Code::kOk) break;
        code = g.Store<uint64_t>(probe, probe.top(), 0xDEADBEEF).code();
        break;
      }
      case AttackOp::kGvectorEscape: {
        Result<GuestVector<uint64_t>> vec = GuestVector<uint64_t>::Create(g, /*capacity=*/4);
        if (!vec.ok()) {
          code = vec.code();
          break;
        }
        const int pushes = 1 + step.arg % 4;
        for (int n = 0; n < pushes && code == Code::kOk; ++n) {
          code = vec->PushBack(static_cast<uint64_t>(n)).code();
        }
        if (code != Code::kOk) break;
        // Header layout: [size u64 | capacity u64 | data capability] — reload the data
        // capability raw and walk one element past its (tight) bounds.
        Result<Capability> data = g.LoadCap(vec->header(), vec->header().base() + 16);
        if (!data.ok()) {
          code = data.code();
          break;
        }
        detail = data->tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(*data, data->top()).code();
        break;
      }
      case AttackOp::kSentryDeref: {
        const Capability& sentry = g.uproc().syscall_sentry;
        detail = sentry.tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(sentry, sentry.address()).code();
        break;
      }
      case AttackOp::kSentryRetag: {
        const Capability& sentry = g.uproc().syscall_sentry;
        const Capability retag = sentry.WithAddress(sentry.address() + 8);
        detail = retag.tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(retag, retag.address()).code();
        break;
      }
      case AttackOp::kSealNoPerm: {
        if ((code = ensure_probe()) != Code::kOk) break;
        // The DDC deliberately lacks kPermSeal (DESIGN.md §4.4): sealing with it as the
        // authority must refuse with a permission fault before the otype is even examined.
        const Capability sealer =
            g.ddc().WithAddress(g.ddc().base() + kOtypeFirstUser + step.arg % 8);
        code = probe.Sealed(sealer).code();
        break;
      }
      case AttackOp::kUnsealWrong: {
        code = g.uproc().syscall_sentry.Unsealed(g.ddc()).code();
        break;
      }
      case AttackOp::kPipeLaunder: {
        if ((code = ensure_probe()) != Code::kOk) break;
        Result<Capability> src = g.Malloc(kSlotBytes);
        Result<Capability> dst = src.ok() ? g.Malloc(kSlotBytes) : Result<Capability>(src.error());
        if (!dst.ok()) {
          code = dst.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*src, src->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        // Pre-seed the receiver granule with a *valid* capability: landing tag-stripped must
        // be the transfer's doing, not a tag the receiver never had.
        if (Result<void> sc = g.StoreCap(*dst, dst->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        auto pipe = co_await g.Pipe();
        if (!pipe.ok()) {
          code = pipe.code();
          break;
        }
        const auto [rfd, wfd] = *pipe;
        auto wrote = co_await g.Write(wfd, *src, kCapSize);
        Result<int64_t> read = wrote.ok() ? co_await g.Read(rfd, *dst, kCapSize)
                                          : Result<int64_t>(wrote.error());
        (void)co_await g.Close(rfd);
        (void)co_await g.Close(wfd);
        if (!read.ok()) {
          code = read.code();
          break;
        }
        reload_and_deref(*dst, *src, detail, code);
        break;
      }
      case AttackOp::kMqLaunder: {
        if ((code = ensure_probe()) != Code::kOk) break;
        Result<Capability> src = g.Malloc(kSlotBytes);
        Result<Capability> dst = src.ok() ? g.Malloc(kSlotBytes) : Result<Capability>(src.error());
        if (!dst.ok()) {
          code = dst.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*src, src->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*dst, dst->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        auto self = co_await g.GetPid();
        const std::string name =
            "/mq/attack-" + std::to_string(self.ok() ? static_cast<int64_t>(*self) : 0);
        auto fd = co_await g.MqOpen(name, /*create=*/true);
        if (!fd.ok()) {
          code = fd.code();
          break;
        }
        auto wrote = co_await g.Write(*fd, *src, kCapSize);
        Result<int64_t> read = wrote.ok() ? co_await g.Read(*fd, *dst, kCapSize)
                                          : Result<int64_t>(wrote.error());
        (void)co_await g.Close(*fd);
        if (!read.ok()) {
          code = read.code();
          break;
        }
        reload_and_deref(*dst, *src, detail, code);
        break;
      }
      case AttackOp::kVfsLaunder: {
        if ((code = ensure_probe()) != Code::kOk) break;
        Result<Capability> src = g.Malloc(kSlotBytes);
        Result<Capability> dst = src.ok() ? g.Malloc(kSlotBytes) : Result<Capability>(src.error());
        if (!dst.ok()) {
          code = dst.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*src, src->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*dst, dst->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        auto self = co_await g.GetPid();
        const std::string path =
            "/attack-launder-" + std::to_string(self.ok() ? static_cast<int64_t>(*self) : 0);
        auto fd = co_await g.Open(path, kOpenRead | kOpenWrite | kOpenCreate | kOpenTrunc);
        if (!fd.ok()) {
          code = fd.code();
          break;
        }
        auto wrote = co_await g.Write(*fd, *src, kCapSize);
        if (wrote.ok()) {
          auto seeked = co_await g.Seek(*fd, 0, /*whence=SEEK_SET*/ 0);
          wrote = seeked.ok() ? Result<int64_t>(*wrote) : Result<int64_t>(seeked.error());
        }
        Result<int64_t> read = wrote.ok() ? co_await g.Read(*fd, *dst, kCapSize)
                                          : Result<int64_t>(wrote.error());
        (void)co_await g.Close(*fd);
        (void)co_await g.Unlink(path);
        if (!read.ok()) {
          code = read.code();
          break;
        }
        reload_and_deref(*dst, *src, detail, code);
        break;
      }
      case AttackOp::kForkLaunder: {
        if ((code = ensure_probe()) != Code::kOk) break;
        Result<Capability> dst = g.Malloc(kSlotBytes);
        if (!dst.ok()) {
          code = dst.code();
          break;
        }
        if (Result<void> sc = g.StoreCap(*dst, dst->base(), probe); !sc.ok()) {
          code = sc.code();
          break;
        }
        auto pipe = co_await g.Pipe();
        if (!pipe.ok()) {
          code = pipe.code();
          break;
        }
        const auto [rfd, wfd] = *pipe;
        // The child pipes the raw bytes of its *own* (valid, post-fork-relocated) heap
        // capability back across the fork boundary.
        GuestFn child_fn = [wfd](Guest& cg) -> SimTask<void> {
          Result<Capability> buf = cg.Malloc(kSlotBytes);
          if (buf.ok() && cg.StoreCap(*buf, buf->base(), *buf).ok()) {
            (void)co_await cg.Write(wfd, *buf, kCapSize);
          }
          co_await cg.Exit(0);
        };
        auto child = co_await g.Fork(std::move(child_fn));
        if (!child.ok()) {
          (void)co_await g.Close(rfd);
          (void)co_await g.Close(wfd);
          code = child.code();
          break;
        }
        (void)co_await g.Close(wfd);  // parent's end: the read EOFs even if the child bailed
        auto read = co_await g.Read(rfd, *dst, kCapSize);
        (void)co_await g.Wait();
        (void)co_await g.Close(rfd);
        if (!read.ok()) {
          code = read.code();
          break;
        }
        if (*read != static_cast<int64_t>(kCapSize)) {
          break;  // child died before writing (chaos): nothing transported, clean outcome
        }
        Result<Capability> lr = g.LoadCap(*dst, dst->base());
        if (!lr.ok()) {
          code = lr.code();
          break;
        }
        loaded = *lr;
        detail = loaded.tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(loaded, loaded.address()).code();
        break;
      }
      case AttackOp::kShmStoreCap: {
        if ((code = ensure_probe()) != Code::kOk) break;
        auto self = co_await g.GetPid();
        const std::string name =
            "/shm/attack-" + std::to_string(self.ok() ? static_cast<int64_t>(*self) : 0);
        auto shm = co_await g.ShmOpen(name, 4096);
        if (!shm.ok()) {
          code = shm.code();
          break;
        }
        auto window = co_await g.ShmMap(*shm);
        if (!window.ok()) {
          code = window.code();
          break;
        }
        detail = window->HasPerms(kPermStoreCap) ? kDetailTag : 0;  // must be 0
        code = g.StoreCap(*window, window->base(), probe).code();
        (void)co_await g.ShmUnlink(name);
        break;
      }
      case AttackOp::kGotOutOfRange: {
        if ((code = ensure_probe()) != Code::kOk) break;
        // Past the table: an errno, not a fault — execution continues.
        code = g.GotStore(kGotSlotFirstUser + 200 + step.arg, probe).code();
        break;
      }
      case AttackOp::kUafStash: {
        if (uaf_target_va == 0) {
          code = Code::kErrInval;  // op disabled outside the UAF differential campaign
          break;
        }
        if ((code = ensure_slot()) != Code::kOk) break;
        // Stand-in for a capability legitimately held before its region was freed: stash it
        // in guest memory (where the revocation sweep can see it), reload, dereference.
        const Capability stashed = Capability::Root(uaf_target_va, 64, kPermAllData);
        if (Result<void> sc = g.StoreCap(slot, slot.base() + kCapSize, stashed); !sc.ok()) {
          code = sc.code();
          break;
        }
        Result<Capability> lr = g.LoadCap(slot, slot.base() + kCapSize);
        if (!lr.ok()) {
          code = lr.code();
          break;
        }
        loaded = *lr;
        detail = loaded.tag() ? kDetailTag : 0;
        code = g.Load<uint64_t>(loaded, loaded.address()).code();
        break;
      }
      case AttackOp::kNumOps:
        code = Code::kErrInval;
        break;
    }
    trace.steps.push_back(
        StepOutcome{static_cast<uint8_t>(step.op), static_cast<int32_t>(code), detail});
    if (IsFaultCode(code)) {
      trace.fatal_step = static_cast<uint32_t>(i);
      trace.fatal_code = code;
      break;
    }
  }
  co_return trace;
}

SimTask<void> RunAttackChild(Guest& g, AttackProgram program, int trace_fd,
                             uint64_t uaf_target_va) {
  const AttackTrace trace = co_await ExecuteAttackProgram(g, std::move(program), uaf_target_va);
  // Flush the trace through the pipe first — the simulator's stand-in for a core dump — then
  // take the trap. A lost trace (chaos starved the buffer) still yields the right status.
  const std::vector<std::byte> wire = trace.Encode();
  if (Result<Capability> buf = g.PlaceBytes(wire); buf.ok()) {
    (void)co_await g.Write(trace_fd, *buf, wire.size());
  }
  (void)co_await g.Close(trace_fd);
  if (trace.fatal()) {
    const AttackOp op = static_cast<AttackOp>(trace.steps.back().op);
    // Hoisted per the GCC 12 rule (guest.h): the fault never resumes this frame, and a string
    // temporary spanning that suspension would be destroyed twice when the thread is reaped.
    const Error fault{trace.fatal_code, std::string("attack battery: ") + AttackOpName(op)};
    co_await g.RaiseFault(fault);
    co_return;
  }
  co_await g.Exit(0);
}

const std::vector<BatteryAttack>& AttackBattery() {
  static const std::vector<BatteryAttack> battery = [] {
    auto p = [](std::initializer_list<AttackStep> steps) { return AttackProgram(steps); };
    std::vector<BatteryAttack> b;
    // Forgery: raw bytes over a slot reload untagged; a clobbered byte untags a valid cap.
    b.push_back({"forge-raw-bytes",
                 AttackClass::kForgery,
                 p({{AttackOp::kForgeRawBytes, 7}, {AttackOp::kDerefForged, 0}}),
                 Code::kFaultTag});
    b.push_back({"clobber-cap-byte",
                 AttackClass::kForgery,
                 p({{AttackOp::kClobberCapByte, 3}, {AttackOp::kDerefForged, 0}}),
                 Code::kFaultTag});
    // Bounds: walks off tinyalloc and gvector allocations in all three directions.
    b.push_back({"bounds-load-high", AttackClass::kBounds, p({{AttackOp::kBoundsLoadHigh, 0}}),
                 Code::kFaultBounds});
    b.push_back({"bounds-load-low", AttackClass::kBounds, p({{AttackOp::kBoundsLoadLow, 0}}),
                 Code::kFaultBounds});
    b.push_back({"bounds-store-high", AttackClass::kBounds, p({{AttackOp::kBoundsStoreHigh, 0}}),
                 Code::kFaultBounds});
    b.push_back({"gvector-escape", AttackClass::kBounds, p({{AttackOp::kGvectorEscape, 2}}),
                 Code::kFaultBounds});
    // Sealed-capability misuse against the syscall sentry and the seal/unseal authority model.
    b.push_back({"sentry-deref", AttackClass::kSealed, p({{AttackOp::kSentryDeref, 0}}),
                 Code::kFaultSeal});
    b.push_back({"sentry-retag", AttackClass::kSealed, p({{AttackOp::kSentryRetag, 0}}),
                 Code::kFaultTag});
    b.push_back({"seal-no-perm", AttackClass::kSealed, p({{AttackOp::kSealNoPerm, 1}}),
                 Code::kFaultPermission});
    b.push_back({"unseal-wrong", AttackClass::kSealed, p({{AttackOp::kUnsealWrong, 0}}),
                 Code::kFaultSeal});
    // Tag laundering through every transfer buffer the kernel owns.
    b.push_back({"pipe-launder", AttackClass::kTagLaunder, p({{AttackOp::kPipeLaunder, 0}}),
                 Code::kFaultTag});
    b.push_back({"mq-launder", AttackClass::kTagLaunder, p({{AttackOp::kMqLaunder, 0}}),
                 Code::kFaultTag});
    b.push_back({"vfs-launder", AttackClass::kTagLaunder, p({{AttackOp::kVfsLaunder, 0}}),
                 Code::kFaultTag});
    b.push_back({"fork-launder", AttackClass::kTagLaunder, p({{AttackOp::kForkLaunder, 0}}),
                 Code::kFaultTag});
    b.push_back({"shm-storecap", AttackClass::kTagLaunder, p({{AttackOp::kShmStoreCap, 0}}),
                 Code::kFaultPermission});
    // Errno-plane probe: refused, not trapped — the program exits cleanly.
    b.push_back({"got-out-of-range", AttackClass::kMisc, p({{AttackOp::kGotOutOfRange, 0}}),
                 Code::kOk});
    // Multi-step: errno outcomes recorded mid-program, first fault wins.
    b.push_back({"combo-errno-then-fault",
                 AttackClass::kMisc,
                 p({{AttackOp::kForgeRawBytes, 1},
                    {AttackOp::kGotOutOfRange, 9},
                    {AttackOp::kClobberCapByte, 14},
                    {AttackOp::kBoundsLoadHigh, 3}}),
                 Code::kFaultBounds});
    return b;
  }();
  return battery;
}

}  // namespace ufork
