#include "src/kernel/fd.h"

namespace ufork {

Result<int> FdTable::Install(std::shared_ptr<OpenFile> file) {
  for (size_t fd = 0; fd < slots_.size(); ++fd) {
    if (slots_[fd] == nullptr) {
      slots_[fd] = std::move(file);
      return static_cast<int>(fd);
    }
  }
  if (slots_.size() == kMaxFds) {
    return Error{Code::kErrMfile, "descriptor table full"};
  }
  slots_.push_back(std::move(file));
  return static_cast<int>(slots_.size() - 1);
}

Result<std::shared_ptr<OpenFile>> FdTable::Get(int fd) const {
  if (fd < 0 || static_cast<size_t>(fd) >= slots_.size() ||
      slots_[static_cast<size_t>(fd)] == nullptr) {
    return Error{Code::kErrBadFd, "bad file descriptor"};
  }
  return slots_[static_cast<size_t>(fd)];
}

Result<void> FdTable::Close(int fd) {
  if (fd < 0 || static_cast<size_t>(fd) >= slots_.size() ||
      slots_[static_cast<size_t>(fd)] == nullptr) {
    return Error{Code::kErrBadFd, "close of bad file descriptor"};
  }
  slots_[static_cast<size_t>(fd)]->OnClose();
  slots_[static_cast<size_t>(fd)].reset();
  while (!slots_.empty() && slots_.back() == nullptr) {
    slots_.pop_back();  // keep the table no longer than the highest open descriptor + 1
  }
  return OkResult();
}

Result<int> FdTable::Dup2(int oldfd, int newfd) {
  UF_ASSIGN_OR_RETURN(std::shared_ptr<OpenFile> file, Get(oldfd));
  if (newfd < 0 || newfd >= kMaxFds) {
    return Error{Code::kErrBadFd, "dup2 target out of range"};
  }
  if (newfd == oldfd) {
    return newfd;
  }
  const auto slot = static_cast<size_t>(newfd);
  if (slot >= slots_.size()) {
    slots_.resize(slot + 1);
  } else if (slots_[slot] != nullptr) {
    slots_[slot]->OnClose();
  }
  file->OnDup();
  slots_[slot] = std::move(file);
  return newfd;
}

std::shared_ptr<FdTable> FdTable::Clone() const {
  auto clone = std::make_shared<FdTable>();
  clone->slots_ = slots_;
  for (const auto& file : slots_) {
    if (file != nullptr) {
      file->OnDup();
    }
  }
  return clone;
}

void FdTable::CloseAll() {
  for (auto& slot : slots_) {
    if (slot != nullptr) {
      slot->OnClose();
      slot.reset();
    }
  }
  slots_.clear();
}

int FdTable::OpenCount() const {
  int n = 0;
  for (const auto& slot : slots_) {
    n += slot != nullptr ? 1 : 0;
  }
  return n;
}

}  // namespace ufork
