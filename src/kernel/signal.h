// POSIX-style signals for μprocesses.
//
// A pragmatic subset sufficient for the fork use-cases the paper targets (per-μprocess signals
// are listed among the per-process kernel state §4.5 adds): SIGKILL terminates immediately;
// other signals are recorded in a per-μprocess pending set and delivered at well-defined
// points — when the target enters a (potentially) blocking syscall such as wait/read/sleep, or
// when it polls explicitly. Handlers are guest coroutines; without a handler the default
// action applies (terminate for SIGTERM/SIGINT/SIGUSR*, ignore for SIGCHLD).
//
// Deliberate simplification (documented): a signal does not interrupt an already-blocked
// syscall with EINTR; it is delivered at the next delivery point.
#ifndef UFORK_SRC_KERNEL_SIGNAL_H_
#define UFORK_SRC_KERNEL_SIGNAL_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/base/status.h"
#include "src/sched/task.h"

namespace ufork {

class Kernel;
class Uproc;

inline constexpr int kSigInt = 2;
inline constexpr int kSigKill = 9;
inline constexpr int kSigUsr1 = 10;
inline constexpr int kSigSegv = 11;  // capability/translation fault containment (§4.9)
inline constexpr int kSigUsr2 = 12;
inline constexpr int kSigTerm = 15;
inline constexpr int kSigChld = 17;
inline constexpr int kMaxSignal = 31;

// A handler runs in the context of the signalled μprocess at a delivery point.
using SignalHandler = std::function<SimTask<void>(Kernel&, Uproc&, int signal)>;

enum class SignalDefault { kTerminate, kIgnore };

constexpr SignalDefault DefaultActionFor(int signal) {
  return signal == kSigChld ? SignalDefault::kIgnore : SignalDefault::kTerminate;
}

// Per-μprocess signal state. Fork inherits handlers and clears the pending set (POSIX: the
// child starts with an empty pending set; dispositions are inherited).
class SignalState {
 public:

  void SetHandler(int signal, SignalHandler handler) {
    handlers_[signal] = std::move(handler);
  }
  void ResetHandler(int signal) { handlers_.erase(signal); }
  const SignalHandler* HandlerFor(int signal) const {
    auto it = handlers_.find(signal);
    return it == handlers_.end() ? nullptr : &it->second;
  }

  void Raise(int signal) { pending_ |= 1u << signal; }
  bool AnyPending() const { return pending_ != 0; }
  // Removes and returns the lowest pending signal, or 0.
  int TakePending() {
    if (pending_ == 0) {
      return 0;
    }
    const int signal = __builtin_ctz(pending_);
    pending_ &= pending_ - 1;  // clears the lowest set bit — the signal being taken
    return signal;
  }
  void ClearPending() { pending_ = 0; }

  // fork-time duplication: dispositions inherited, pending set cleared.
  SignalState ForkCopy() const {
    SignalState copy;
    copy.handlers_ = handlers_;
    return copy;
  }

 private:
  uint32_t pending_ = 0;
  std::map<int, SignalHandler> handlers_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_SIGNAL_H_
