// Adversarial capability-attack battery (DESIGN.md §4.14).
//
// μFork's isolation story rests on the capability machine faulting *exactly* where CHERI says
// it must: forged pointers load untagged, bounds escapes trap, sealed capabilities refuse
// inspection, and IPC transfer buffers launder bytes but never tags. Every speed item in the
// ROADMAP reshaped those paths (fault-around windows, demand fills, incremental
// compaction); this battery attacks them.
//
// An attack is a small *program* over adversarial primitives (AttackOp), interpreted by guest
// code inside a forked μprocess. Each step records the observed outcome code into a trace; the
// first capability/translation fault is fatal — the interpreter flushes the trace through a
// pipe to the campaign driver (the simulator's stand-in for a core dump) and then raises the
// fault, dying with the contained-SIGSEGV status. Traces are deliberately address-free (op,
// code, one detail byte), so the same attack must produce the *byte-identical* trace on every
// backend (μFork CoPA/CoA/Full, MAS, VM-clone), under eager or demand paging, with the
// compaction service off or on — that is the differential assertion src/attack/differential.h
// drives.
//
// The same op set doubles as the mutation space of the structure-aware fork-server fuzzer
// (src/apps/forkfuzz.h): random programs are encoded to bytes, mutated, and decoded back, so
// crash bucketing keys on (fault kind, faulting op) instead of raw input bytes.
#ifndef UFORK_SRC_ATTACK_ATTACK_H_
#define UFORK_SRC_ATTACK_ATTACK_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/guest/guest.h"

namespace ufork {

// GOT slot the attack interpreter uses for cross-fork state (distinct from the fuzz target's
// slot so the battery and the legacy lookup-table target can coexist in one μprocess).
inline constexpr int kGotSlotAttackState = kGotSlotFirstUser + 3;

// Adversarial primitives. Every op is expressed purely in terms of the attacking μprocess's
// own authority (its DDC-derived allocations, its descriptors, its syscall sentry), so the
// observable outcome is a property of the capability machine — never of another μprocess's
// placement — and therefore identical across backends.
enum class AttackOp : uint8_t {
  // --- capability forgery from raw bytes --------------------------------------------------
  kForgeRawBytes = 0,  // write 16 raw bytes over a cap-aligned slot; reload as capability
  kClobberCapByte,     // store a valid cap, overwrite one byte via a data store, reload
  kDerefForged,        // dereference whatever the previous forge op reloaded (expects a fault)
  // --- bounds-overflow walks off tinyalloc/gvector allocations -----------------------------
  kBoundsLoadHigh,  // load 8 bytes at allocation top + arg (walk off the end)
  kBoundsLoadLow,   // load 8 bytes below allocation base (tinyalloc header read)
  kBoundsStoreHigh, // store 8 bytes at allocation top (write flavour)
  kGvectorEscape,   // gvector data capability walked past size*sizeof(T)
  // --- sealed-capability misuse ------------------------------------------------------------
  kSentryDeref,   // load through the sealed syscall-entry capability
  kSentryRetag,   // WithAddress on the sentry (must untag), then dereference
  kSealNoPerm,    // seal a heap cap with the DDC as sealer (DDC lacks kPermSeal)
  kUnsealWrong,   // unseal the sentry with a non-unsealing authority
  // --- tag laundering through IPC transfer buffers ----------------------------------------
  kPipeLaunder,  // send a granule holding a valid cap through a pipe, reload at receiver
  kMqLaunder,    // same through a message queue
  kVfsLaunder,   // same through a ramdisk file (write + read back)
  kForkLaunder,  // forked child pipes its own cap's bytes back to the attack parent
  kShmStoreCap,  // store a capability through a MAP_SHARED window (perm must refuse)
  // --- misc adversarial probes -------------------------------------------------------------
  kGotOutOfRange,  // GOT access past the table (errno, not a fault)
  kUafStash,       // dereference a stashed capability into a freed region (μFork UAF campaign;
                   //   the differential harness plants the region base, see differential.h)
  kNumOps,
};

inline constexpr size_t kNumAttackOps = static_cast<size_t>(AttackOp::kNumOps);

const char* AttackOpName(AttackOp op);

struct AttackStep {
  AttackOp op = AttackOp::kBoundsLoadHigh;
  uint8_t arg = 0;  // op-specific operand (offset scale, byte index, slot, ...)
};

using AttackProgram = std::vector<AttackStep>;

// One executed step: which op ran, what code it observed, and one op-specific detail byte
// (e.g. the reloaded capability's tag bit for forge/launder ops). Address-free by design.
struct StepOutcome {
  uint8_t op = 0;
  int32_t code = 0;  // static_cast<int32_t>(Code)
  uint8_t detail = 0;
};

inline constexpr uint32_t kNoFatalStep = 0xFFFFFFFFu;

struct AttackTrace {
  std::vector<StepOutcome> steps;
  uint32_t fatal_step = kNoFatalStep;  // index of the step whose fault killed the program
  Code fatal_code = Code::kOk;

  bool fatal() const { return fatal_step != kNoFatalStep; }
  // Flat byte encoding (the wire format the attack child pipes to the campaign driver).
  std::vector<std::byte> Encode() const;
  static AttackTrace Decode(std::span<const std::byte> bytes);
};

// --- program wire format (fuzzer input space) -----------------------------------------------

// Two bytes per step: [op, arg]. Unknown opcodes decode modulo kNumOps, so *any* byte string
// is a valid program — the property structure-aware fuzzing needs.
std::vector<std::byte> EncodeAttackProgram(const AttackProgram& program);
AttackProgram DecodeAttackProgram(std::span<const std::byte> bytes);

// --- interpreter -----------------------------------------------------------------------------
//
// Executes `program` step by step as the calling guest. Capability/translation faults
// (Code::kFault*) are fatal: execution stops, fatal_step/fatal_code are set, and the caller is
// expected to flush the trace and then raise the fault (RunAttackChild does exactly that).
// POSIX errno codes (Code::kErr*) are recorded and execution continues — a syscall refusing is
// an outcome, not a crash. `uaf_target_va` parameterizes kUafStash (0 disables the op: it
// records kErrInval).
SimTask<AttackTrace> ExecuteAttackProgram(Guest& guest, AttackProgram program,
                                          uint64_t uaf_target_va = 0);

// Runs `program` to completion in the calling (forked) μprocess, writes the encoded trace to
// `trace_fd`, and exits: RaiseFault (-> contained SIGSEGV, status 139) if a step faulted,
// Exit(0) otherwise. This is the body of every battery child and every fuzz case.
SimTask<void> RunAttackChild(Guest& guest, AttackProgram program, int trace_fd,
                             uint64_t uaf_target_va = 0);

// --- the canonical battery -------------------------------------------------------------------

enum class AttackClass : uint8_t { kForgery, kBounds, kSealed, kTagLaunder, kUaf, kMisc };

struct BatteryAttack {
  std::string name;
  AttackClass cls = AttackClass::kMisc;
  AttackProgram program;
  // The fault the attack must die of (Code::kOk for errno-only attacks that exit cleanly).
  Code expected_fatal = Code::kOk;
};

// The fixed attack battery: every class, deterministic programs, backend-independent traces.
// kUafStash is deliberately absent — region-level UAF depends on quarantine configuration and
// runs through the dedicated differential campaign (differential.h).
const std::vector<BatteryAttack>& AttackBattery();

}  // namespace ufork

#endif  // UFORK_SRC_ATTACK_ATTACK_H_
