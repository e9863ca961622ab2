// POSIX-style message queues (mq_open / mq_send / mq_receive).
//
// The paper lists message queue descriptors among the system resources fork duplicates (§3.5).
// Queues are named, bounded in message count, and preserve message boundaries; Read/Write on
// the descriptor map to receive/send of whole messages.
#ifndef UFORK_SRC_KERNEL_MQUEUE_H_
#define UFORK_SRC_KERNEL_MQUEUE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/fault_injection.h"
#include "src/base/status.h"
#include "src/kernel/fd.h"
#include "src/sched/scheduler.h"

namespace ufork {

inline constexpr uint64_t kMqMaxMessages = 64;
inline constexpr uint64_t kMqMaxMessageSize = 8192;
// Granularity at which message storage is charged against the kMqGrow injection site: one
// ShouldFail probe per started 1 KiB of payload, mirroring a kernel allocating queue storage
// in slabs.
inline constexpr uint64_t kMqAllocChunk = 1024;

class MessageQueue {
 public:
  MessageQueue(Scheduler& sched, Cycles wake_cost, FaultInjector* injector = nullptr)
      : sched_(sched),
        wake_cost_(wake_cost),
        injector_(injector),
        senders_wq_(sched),
        receivers_wq_(sched) {
    senders_wq_.set_resume_delay(wake_cost);
    receivers_wq_.set_resume_delay(wake_cost);
  }

  SimTask<Result<void>> Send(std::vector<std::byte> message);
  SimTask<Result<std::vector<std::byte>>> Receive();

  uint64_t depth() const { return messages_.size(); }

 private:
  Scheduler& sched_;
  Cycles wake_cost_;
  FaultInjector* injector_;
  WaitQueue senders_wq_;
  WaitQueue receivers_wq_;
  std::deque<std::vector<std::byte>> messages_;
};

// Registry of named queues (the mq filesystem namespace). `injector` arms the kMqReserve site
// in Open and threads kMqGrow into every queue it creates (null: injection disabled).
class MqRegistry {
 public:
  MqRegistry(Scheduler& sched, Cycles wake_cost, FaultInjector* injector = nullptr)
      : sched_(sched), wake_cost_(wake_cost), injector_(injector) {}

  Result<std::shared_ptr<OpenFile>> Open(const std::string& name, bool create);
  Result<void> Unlink(const std::string& name);

 private:
  Scheduler& sched_;
  Cycles wake_cost_;
  FaultInjector* injector_;
  std::map<std::string, std::shared_ptr<MessageQueue>> queues_;
};

class MqHandle : public OpenFile {
 public:
  explicit MqHandle(std::shared_ptr<MessageQueue> queue) : queue_(std::move(queue)) {}

  SimTask<Result<int64_t>> Read(std::span<std::byte> out) override;
  SimTask<Result<int64_t>> Write(std::span<const std::byte> in) override;
  const char* kind() const override { return "mqueue"; }

 private:
  std::shared_ptr<MessageQueue> queue_;
};

}  // namespace ufork

#endif  // UFORK_SRC_KERNEL_MQUEUE_H_
