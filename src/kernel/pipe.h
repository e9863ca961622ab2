// POSIX pipes over virtual-time wait queues.
//
// Pipes are the IPC primitive the paper's Unixbench Context1 benchmark measures (§5.2): a
// 64 KiB ring buffer with blocking reads/writes, EOF once all writers close, and EPIPE once all
// readers close. Each end is an OpenFile whose descriptor references are counted so fork/dup
// keep EOF semantics correct.
#ifndef UFORK_SRC_KERNEL_PIPE_H_
#define UFORK_SRC_KERNEL_PIPE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/kernel/fd.h"
#include "src/sched/scheduler.h"

namespace ufork {

inline constexpr uint64_t kPipeCapacity = 64 * 1024;

class Pipe {
 public:
  Pipe(Scheduler& sched, Cycles wake_cost, FaultInjector* injector = nullptr)
      : sched_(sched),
        wake_cost_(wake_cost),
        injector_(injector),
        readers_wq_(sched),
        writers_wq_(sched),
        buffer_(kPipeCapacity) {
    readers_wq_.set_resume_delay(wake_cost);
    writers_wq_.set_resume_delay(wake_cost);
  }

  // Creates the pair of ends, each installed as refcount-1 descriptions. wake_cost is the
  // resume latency a blocked side pays when the other side unblocks it (cross-core wakeup).
  // `injector` arms the kPipeGrow site in Write (null: injection disabled).
  static std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>> Create(
      Scheduler& sched, Cycles wake_cost, FaultInjector* injector = nullptr);

 private:
  friend class PipeEnd;

  uint64_t Available() const { return fill_; }
  uint64_t Space() const { return buffer_.size() - fill_; }

  Scheduler& sched_;
  Cycles wake_cost_;
  FaultInjector* injector_;
  WaitQueue readers_wq_;
  WaitQueue writers_wq_;
  std::vector<std::byte> buffer_;
  uint64_t head_ = 0;  // read position
  uint64_t fill_ = 0;
  int reader_refs_ = 0;
  int writer_refs_ = 0;
};

class PipeEnd : public OpenFile {
 public:
  PipeEnd(std::shared_ptr<Pipe> pipe, bool is_writer);

  SimTask<Result<int64_t>> Read(std::span<std::byte> out) override;
  SimTask<Result<int64_t>> Write(std::span<const std::byte> in) override;
  void OnDup() override;
  void OnClose() override;
  Cycles IoFixedCost(const CostModel& costs) const override { return costs.pipe_op; }
  const char* kind() const override { return is_writer_ ? "pipe[w]" : "pipe[r]"; }

 private:
  std::shared_ptr<Pipe> pipe_;
  bool is_writer_;
  int refs_ = 1;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_PIPE_H_
