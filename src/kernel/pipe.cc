#include "src/kernel/pipe.h"

#include <algorithm>
#include <cstring>

namespace ufork {

std::pair<std::shared_ptr<OpenFile>, std::shared_ptr<OpenFile>> Pipe::Create(
    Scheduler& sched, Cycles wake_cost, FaultInjector* injector) {
  auto pipe = std::make_shared<Pipe>(sched, wake_cost, injector);
  auto read_end = std::make_shared<PipeEnd>(pipe, /*is_writer=*/false);
  auto write_end = std::make_shared<PipeEnd>(pipe, /*is_writer=*/true);
  return {read_end, write_end};
}

PipeEnd::PipeEnd(std::shared_ptr<Pipe> pipe, bool is_writer)
    : pipe_(std::move(pipe)), is_writer_(is_writer) {
  if (is_writer_) {
    ++pipe_->writer_refs_;
  } else {
    ++pipe_->reader_refs_;
  }
}

void PipeEnd::OnDup() { ++refs_; }

void PipeEnd::OnClose() {
  UF_CHECK(refs_ > 0);
  if (--refs_ > 0) {
    return;
  }
  if (is_writer_) {
    if (--pipe_->writer_refs_ == 0) {
      pipe_->readers_wq_.WakeAll();  // deliver EOF to blocked readers
    }
  } else {
    if (--pipe_->reader_refs_ == 0) {
      pipe_->writers_wq_.WakeAll();  // deliver EPIPE to blocked writers
    }
  }
}

SimTask<Result<int64_t>> PipeEnd::Read(std::span<std::byte> out) {
  if (is_writer_) {
    co_return Error{Code::kErrBadFd, "read on pipe write end"};
  }
  if (out.empty()) {
    co_return 0;
  }
  Pipe& p = *pipe_;
  for (;;) {
    if (p.Available() > 0) {
      const uint64_t n = std::min<uint64_t>(out.size(), p.Available());
      for (uint64_t i = 0; i < n; ++i) {
        out[i] = p.buffer_[(p.head_ + i) % p.buffer_.size()];
      }
      p.head_ = (p.head_ + n) % p.buffer_.size();
      p.fill_ -= n;
      p.writers_wq_.WakeAll();
      co_return static_cast<int64_t>(n);
    }
    if (p.writer_refs_ == 0) {
      co_return 0;  // EOF
    }
    co_await p.readers_wq_.Wait();
  }
}

SimTask<Result<int64_t>> PipeEnd::Write(std::span<const std::byte> in) {
  if (!is_writer_) {
    co_return Error{Code::kErrBadFd, "write on pipe read end"};
  }
  Pipe& p = *pipe_;
  uint64_t written = 0;
  while (written < in.size()) {
    if (p.reader_refs_ == 0) {
      co_return Error{Code::kErrPipe, "write on pipe with no readers"};
    }
    if (p.Space() == 0) {
      co_await p.writers_wq_.Wait();
      continue;
    }
    if (p.injector_ != nullptr && p.injector_->ShouldFail(FaultSite::kPipeGrow)) {
      // Checked before any byte of this chunk is staged: either nothing of the write is
      // visible (ENOMEM) or a prefix of whole chunks is (POSIX short write) — never a torn
      // chunk.
      if (written == 0) {
        co_return Error{Code::kErrNoMem, "pipe buffer growth failed (injected)"};
      }
      co_return static_cast<int64_t>(written);
    }
    const uint64_t n = std::min<uint64_t>(in.size() - written, p.Space());
    const uint64_t tail = (p.head_ + p.fill_) % p.buffer_.size();
    for (uint64_t i = 0; i < n; ++i) {
      p.buffer_[(tail + i) % p.buffer_.size()] = in[written + i];
    }
    p.fill_ += n;
    written += n;
    p.readers_wq_.WakeAll();
  }
  co_return static_cast<int64_t>(written);
}

}  // namespace ufork
