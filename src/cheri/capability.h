// Behavioural model of a CHERI capability (CHERI ISAv9 / Morello).
//
// A capability is a 128-bit pointer plus an out-of-band validity tag. It carries the bounds
// [base, top) and the permissions of the object it refers to; bounds and permissions are
// monotonically non-increasing: every derivation operation can only shrink them. Sealed
// capabilities are immutable and non-dereferenceable until unsealed; "sentry" (sealed entry)
// capabilities branch-and-unseal to a fixed target and are the paper's trapless syscall entry
// mechanism (§4.4).
//
// This model is uncompressed: base/top are held exactly (no CHERI-Concentrate bounds rounding).
// A separate codec in compressed_cap.h models the compressed 128-bit representation with its
// rounding semantics and is property-tested against this exact model.
#ifndef UFORK_SRC_CHERI_CAPABILITY_H_
#define UFORK_SRC_CHERI_CAPABILITY_H_

#include <cstdint>
#include <string>
#include <type_traits>

#include "src/base/status.h"
#include "src/base/units.h"

namespace ufork {

// Simulated virtual address space: 48-bit, single address space shared by the kernel and all
// μprocesses.
inline constexpr int kVaBits = 48;
inline constexpr uint64_t kVaTop = 1ULL << kVaBits;

// Capability granule: one validity tag covers each naturally-aligned 16-byte region.
inline constexpr uint64_t kCapSize = 16;

// Permission bits (subset of Morello's permission field relevant to μFork).
enum CapPerms : uint32_t {
  kPermLoad = 1u << 0,       // load data
  kPermStore = 1u << 1,      // store data
  kPermExecute = 1u << 2,    // instruction fetch
  kPermLoadCap = 1u << 3,    // load capabilities (tag preserved)
  kPermStoreCap = 1u << 4,   // store capabilities (tag preserved)
  kPermSeal = 1u << 5,       // seal other capabilities with otype = cursor
  kPermUnseal = 1u << 6,     // unseal capabilities with otype = cursor
  kPermSystem = 1u << 7,     // execute privileged (MSR/MRS-class) operations
  kPermGlobal = 1u << 8,     // may be stored through non-local-only authorizers

  kPermAllData = kPermLoad | kPermStore | kPermLoadCap | kPermStoreCap | kPermGlobal,
  kPermAll = (1u << 9) - 1,
};

// Object types. kOtypeUnsealed marks a regular capability; kOtypeSentry marks a sealed-entry
// capability that can only be invoked (branched to), not inspected or modified.
inline constexpr uint32_t kOtypeUnsealed = 0;
inline constexpr uint32_t kOtypeSentry = 1;
inline constexpr uint32_t kOtypeFirstUser = 16;

class Capability {
 public:
  // Untagged null capability: the integer 0 viewed through a capability register.
  constexpr Capability() = default;

  // Untagged integer value. Dereferencing faults with kFaultTag.
  static constexpr Capability Integer(uint64_t value) {
    Capability c;
    c.cursor_ = value;
    return c;
  }

  // Root capability spanning [base, base+length) with the given permissions. Only the kernel
  // (at boot) may mint roots; user code derives everything monotonically from what the kernel
  // hands it.
  static Capability Root(uint64_t base, uint64_t length, uint32_t perms);

  bool tag() const { return tag_; }
  uint64_t address() const { return cursor_; }
  uint64_t base() const { return base_; }
  uint64_t top() const { return top_; }
  uint64_t length() const { return top_ - base_; }
  uint32_t perms() const { return perms_; }
  uint32_t otype() const { return otype_; }
  bool sealed() const { return otype_ != kOtypeUnsealed; }
  bool IsSentry() const { return otype_ == kOtypeSentry; }

  bool HasPerms(uint32_t required) const { return (perms_ & required) == required; }

  // --- Monotonic derivation operations -------------------------------------------------------
  //
  // Each returns a derived capability. Misuse (sealed source, bounds escape) clears the tag of
  // the result, matching the hardware's "untag, don't trap" behaviour for derivations; the
  // fault is then observed at dereference time.

  // Same bounds/permissions, new cursor. Setting the address of a sealed capability untags.
  Capability WithAddress(uint64_t addr) const;

  // Narrow bounds to [new_base, new_base+new_length). The new bounds must be a subset of the
  // old ones and the source must be tagged and unsealed, otherwise the result is untagged.
  // The cursor is set to new_base.
  Capability WithBounds(uint64_t new_base, uint64_t new_length) const;

  // Intersect the permission mask (CAndPerm).
  Capability WithPermsAnd(uint32_t mask) const;

  // Clear the tag (reinterpret as integer bytes).
  Capability Untagged() const;

  // --- Sealing --------------------------------------------------------------------------------

  // Seal *this with otype = sealer.address(). Requires: both tagged, sealer has kPermSeal,
  // sealer.address() within sealer bounds and >= kOtypeFirstUser.
  Result<Capability> Sealed(const Capability& sealer) const;

  // Unseal *this (sealed with some user otype) using unsealer with kPermUnseal and
  // unsealer.address() == otype.
  Result<Capability> Unsealed(const Capability& unsealer) const;

  // Seal as a sentry: invoking (branching to) the sentry unseals it implicitly. Models CSealEntry.
  Capability AsSentry() const;
  // Invoke a sentry: returns the unsealed target. Faults unless *this is a tagged sentry.
  Result<Capability> InvokedSentry() const;

  // --- Dereference checking -------------------------------------------------------------------

  // Validates an access of `size` bytes at `addr` requiring `required_perms`. Returns the
  // precise fault class on failure; the memory engine maps this to a guest-visible exception.
  Result<void> CheckAccess(uint64_t addr, uint64_t size, uint32_t required_perms) const;

  // Convenience: access at the current cursor.
  Result<void> CheckCursorAccess(uint64_t size, uint32_t required_perms) const {
    return CheckAccess(cursor_, size, required_perms);
  }

  // --- Relocation support (μFork §4.2) --------------------------------------------------------

  // True if this capability grants any authority outside [lo, hi): its bounds escape the region
  // or its cursor points outside it. Used by the fork relocation scanner to decide whether a
  // capability found in child memory still refers to the parent μprocess.
  bool EscapesRegion(uint64_t lo, uint64_t hi) const;

  // True if this capability's bounds intersect [lo, hi). Used by the revocation sweep to find
  // capabilities whose authority falls inside a quarantined (freed or moved-from) range.
  bool OverlapsRange(uint64_t lo, uint64_t hi) const { return base_ < hi && top_ > lo; }

  // Rebases a capability found in a child page: cursor and bounds are shifted by
  // (new_lo - old_lo) and then clamped to [new_lo, new_hi). Monotonicity is preserved from the
  // perspective of the child's region root. Sealed capabilities are rebased preserving otype
  // (the kernel performs this during fork with its relocation authority).
  Capability RelocatedInto(uint64_t old_lo, uint64_t new_lo, uint64_t new_hi) const;

  bool IdenticalTo(const Capability& other) const {
    return tag_ == other.tag_ && cursor_ == other.cursor_ && base_ == other.base_ &&
           top_ == other.top_ && perms_ == other.perms_ && otype_ == other.otype_;
  }

  std::string ToString() const;

 private:
  uint64_t cursor_ = 0;
  uint64_t base_ = 0;
  uint64_t top_ = 0;
  uint32_t perms_ = 0;
  uint32_t otype_ = kOtypeUnsealed;
  bool tag_ = false;
};

// The tagged-frame store (src/mem/frame.h) keeps capability records in flat arrays that are
// copied wholesale on every CoW/CoA/CoPA page copy; a 128-bit hardware capability is a plain
// value and its model must stay one too.
static_assert(std::is_trivially_copyable_v<Capability>);

}  // namespace ufork

#endif  // UFORK_SRC_CHERI_CAPABILITY_H_
