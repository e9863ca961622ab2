// Error codes and a lightweight Result<T> (std::expected is not available on this toolchain's
// standard library level, so we carry a minimal equivalent).
//
// The simulator distinguishes two failure planes:
//   * Host-level invariant violations -> UF_CHECK (abort), never Result.
//   * Guest-visible failures (capability faults, page faults, POSIX errno-style errors) ->
//     Result<T> carrying an Error. Faults that the kernel can resolve (CoW / CoPA copies) are
//     consumed inside the memory engine and never reach callers.
#ifndef UFORK_SRC_BASE_STATUS_H_
#define UFORK_SRC_BASE_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "src/base/check.h"

namespace ufork {

// Guest-visible error codes. The kFault* group models hardware exception classes raised by the
// capability machine; the kErr* group models POSIX errno values returned by syscalls.
enum class Code : int32_t {
  kOk = 0,

  // Capability (CHERI) fault classes, cf. CHERI ISAv9 exception causes.
  kFaultTag,         // operating through an untagged (invalid) capability
  kFaultSeal,        // operating through a sealed capability / wrong otype on unseal
  kFaultBounds,      // access outside [base, top)
  kFaultPermission,  // missing Load/Store/Execute/LoadCap/StoreCap/... permission
  kFaultSystem,      // privileged (MSR/MRS-class) operation without the System permission
  kFaultAlignment,   // capability-width access not 16-byte aligned

  // Page / translation fault classes.
  kFaultNotMapped,    // no PTE for the page
  kFaultPageProt,     // PTE permission violation (e.g. write to read-only, CoW candidate)
  kFaultCapLoadPage,  // capability load through a PTE with the load-cap-fault attribute (CoPA)
  kFaultNotPresent,   // reserved-but-unpopulated PTE (demand paging); resolvable by a fill

  // POSIX-style syscall errors.
  kErrInval,
  kErrNoMem,
  kErrNoEnt,
  kErrBadFd,
  kErrAgain,
  kErrChild,   // ECHILD: wait() with no children
  kErrPipe,    // EPIPE: write to pipe with no readers
  kErrExist,
  kErrAccess,  // EACCES: isolation policy rejected the operation
  kErrSrch,    // ESRCH: no such process
  kErrMfile,   // EMFILE: fd table full
  kErrNoSpc,   // ENOSPC: address space / ramdisk exhausted
  kErrNoSys,   // ENOSYS
};

const char* CodeName(Code code);

struct Error {
  Code code = Code::kOk;
  std::string message;
};

// Minimal expected-like result type. Construction from T is implicit (values flow through);
// construction from Error/Code is implicit as well so `return Code::kErrInval;` works.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error error) : rep_(std::move(error)) {  // NOLINT(google-explicit-constructor)
    UF_DCHECK(std::get<Error>(rep_).code != Code::kOk);
  }
  Result(Code code) : Result(Error{code, {}}) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(rep_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    UF_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(rep_);
  }
  T& value() & {
    UF_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(rep_);
  }
  T&& value() && {
    UF_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(std::move(rep_));
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  const Error& error() const {
    UF_CHECK_MSG(!ok(), "Result::error() on value");
    return std::get<Error>(rep_);
  }
  Code code() const { return ok() ? Code::kOk : error().code; }

 private:
  std::variant<T, Error> rep_;
};

template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {  // NOLINT(google-explicit-constructor)
    UF_DCHECK(error_.code != Code::kOk);
  }
  Result(Code code) : Result(Error{code, {}}) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return error_.code == Code::kOk; }
  explicit operator bool() const { return ok(); }
  const Error& error() const {
    UF_CHECK_MSG(!ok(), "Result::error() on value");
    return error_;
  }
  Code code() const { return error_.code; }

 private:
  Error error_;
};

inline Result<void> OkResult() { return Result<void>(); }

// Propagates an error from an expression producing a Result. Usage:
//   UF_RETURN_IF_ERROR(machine.Store(cap, addr, data));
#define UF_RETURN_IF_ERROR(expr)            \
  do {                                      \
    auto uf_result_ = (expr);               \
    if (!uf_result_.ok()) [[unlikely]] {    \
      return uf_result_.error();            \
    }                                       \
  } while (0)

// Assigns the value of a Result-producing expression or propagates its error. Usage:
//   UF_ASSIGN_OR_RETURN(const FrameId frame, machine.frames().Allocate());
#define UF_ASSIGN_OR_RETURN(decl, expr)                    \
  UF_ASSIGN_OR_RETURN_IMPL_(UF_CONCAT_(uf_res_, __LINE__), decl, expr)
#define UF_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) [[unlikely]] {                    \
    return tmp.error();                            \
  }                                                \
  decl = std::move(tmp).value()
#define UF_CONCAT_(a, b) UF_CONCAT_IMPL_(a, b)
#define UF_CONCAT_IMPL_(a, b) a##b

// Coroutine flavours: identical semantics, but propagate with co_return.
#define UF_CO_RETURN_IF_ERROR(expr)         \
  do {                                      \
    auto uf_result_ = (expr);               \
    if (!uf_result_.ok()) [[unlikely]] {    \
      co_return uf_result_.error();         \
    }                                       \
  } while (0)

#define UF_CO_ASSIGN_OR_RETURN(decl, expr) \
  UF_CO_ASSIGN_OR_RETURN_IMPL_(UF_CONCAT_(uf_res_, __LINE__), decl, expr)
#define UF_CO_ASSIGN_OR_RETURN_IMPL_(tmp, decl, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) [[unlikely]] {                       \
    co_return tmp.error();                            \
  }                                                   \
  decl = std::move(tmp).value()

}  // namespace ufork

#endif  // UFORK_SRC_BASE_STATUS_H_
