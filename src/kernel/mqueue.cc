#include "src/kernel/mqueue.h"

#include <algorithm>
#include <cstring>

namespace ufork {

SimTask<Result<void>> MessageQueue::Send(std::vector<std::byte> message) {
  if (message.size() > kMqMaxMessageSize) {
    co_return Error{Code::kErrInval, "message too large"};
  }
  for (;;) {
    if (messages_.size() < kMqMaxMessages) {
      if (injector_ != nullptr) {
        // All storage for the message is charged before it is enqueued: a failure mid-charge
        // leaves the queue exactly as it was (all-or-nothing, never half a message visible).
        for (uint64_t charged = 0; charged < message.size(); charged += kMqAllocChunk) {
          if (injector_->ShouldFail(FaultSite::kMqGrow)) {
            co_return Error{Code::kErrNoMem, "message storage allocation failed (injected)"};
          }
        }
      }
      messages_.push_back(std::move(message));
      receivers_wq_.Wake();
      co_return OkResult();
    }
    co_await senders_wq_.Wait();
  }
}

SimTask<Result<std::vector<std::byte>>> MessageQueue::Receive() {
  for (;;) {
    if (!messages_.empty()) {
      std::vector<std::byte> message = std::move(messages_.front());
      messages_.pop_front();
      senders_wq_.Wake();
      co_return message;
    }
    co_await receivers_wq_.Wait();
  }
}

Result<std::shared_ptr<OpenFile>> MqRegistry::Open(const std::string& name, bool create) {
  auto it = queues_.find(name);
  if (it == queues_.end()) {
    if (!create) {
      return Error{Code::kErrNoEnt, "no such message queue"};
    }
    if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kMqReserve)) {
      return Error{Code::kErrNoMem, "queue descriptor reservation failed (injected)"};
    }
    it = queues_.emplace(name, std::make_shared<MessageQueue>(sched_, wake_cost_, injector_))
             .first;
  }
  return std::static_pointer_cast<OpenFile>(std::make_shared<MqHandle>(it->second));
}

Result<void> MqRegistry::Unlink(const std::string& name) {
  if (queues_.erase(name) == 0) {
    return Error{Code::kErrNoEnt, "mq_unlink: no such queue"};
  }
  return OkResult();
}

SimTask<Result<int64_t>> MqHandle::Read(std::span<std::byte> out) {
  auto message = co_await queue_->Receive();
  if (!message.ok()) {
    co_return message.error();
  }
  const uint64_t n = std::min<uint64_t>(out.size(), message->size());
  std::memcpy(out.data(), message->data(), n);
  co_return static_cast<int64_t>(n);
}

SimTask<Result<int64_t>> MqHandle::Write(std::span<const std::byte> in) {
  std::vector<std::byte> message(in.begin(), in.end());
  auto sent = co_await queue_->Send(std::move(message));
  if (!sent.ok()) {
    co_return sent.error();
  }
  co_return static_cast<int64_t>(in.size());
}

}  // namespace ufork
