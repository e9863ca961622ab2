#include "src/kernel/file_service.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/kernel/page_cache.h"

#include "src/kernel/kernel.h"
#include "src/kernel/syscall_scope.h"

namespace ufork {

SimTask<Result<int>> FileService::Open(Uproc& caller, std::string path, uint32_t flags) {
  SyscallScope scope(kernel_, caller, Sys::kOpen);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().vfs_op);
  auto file = vfs_.Open(path, flags);
  if (!file.ok()) {
    co_return file.error();
  }
  co_return caller.fds->Install(std::move(*file));
}

SimTask<Result<void>> FileService::Close(Uproc& caller, int fd) {
  SyscallScope scope(kernel_, caller, Sys::kClose);
  co_await scope.Enter();
  co_return caller.fds->Close(fd);
}

SimTask<Result<int64_t>> FileService::Read(Uproc& caller, int fd, Capability buf, uint64_t va,
                                           uint64_t len) {
  co_await kernel_.procs().DeliverSignals(caller);
  SyscallScope scope(kernel_, caller, Sys::kRead);
  co_await scope.Enter();
  auto file_or = caller.fds->Get(fd);
  if (!file_or.ok()) {
    co_return file_or.error();
  }
  auto check = kernel_.ValidateUserBuffer(caller, buf, va, len, /*is_write=*/true);
  if (!check.ok()) {
    co_return check.error();
  }
  std::shared_ptr<OpenFile> file = std::move(*file_or);
  kernel_.machine().Charge(file->IoFixedCost(kernel_.costs()));
  scope.Leave();  // the transfer may block (pipes); do not hold the kernel lock across it

  std::vector<std::byte> kbuf(len);
  auto n = co_await file->Read(kbuf);
  if (!n.ok()) {
    co_return n.error();
  }
  if (*n > 0) {
    kernel_.machine().Charge(kernel_.costs().VfsTransfer(static_cast<uint64_t>(*n)));
    auto copied = co_await kernel_.CopyToUser(caller, buf, va,
                                              std::span(kbuf.data(), static_cast<uint64_t>(*n)));
    if (!copied.ok()) {
      co_return copied.error();
    }
  }
  co_return n;
}

SimTask<Result<int64_t>> FileService::Write(Uproc& caller, int fd, Capability buf, uint64_t va,
                                            uint64_t len) {
  SyscallScope scope(kernel_, caller, Sys::kWrite);
  co_await scope.Enter();
  auto file_or = caller.fds->Get(fd);
  if (!file_or.ok()) {
    co_return file_or.error();
  }
  auto check = kernel_.ValidateUserBuffer(caller, buf, va, len, /*is_write=*/false);
  if (!check.ok()) {
    co_return check.error();
  }
  std::shared_ptr<OpenFile> file = std::move(*file_or);
  kernel_.machine().Charge(file->IoFixedCost(kernel_.costs()));
  scope.Leave();

  std::vector<std::byte> kbuf(len);
  auto copied = co_await kernel_.CopyFromUser(caller, buf, va, kbuf);
  if (!copied.ok()) {
    co_return copied.error();
  }
  kernel_.machine().Charge(kernel_.costs().VfsTransfer(len));
  co_return co_await file->Write(kbuf);
}

SimTask<Result<int64_t>> FileService::Seek(Uproc& caller, int fd, int64_t offset, int whence) {
  SyscallScope scope(kernel_, caller, Sys::kSeek);
  co_await scope.Enter();
  auto file_or = caller.fds->Get(fd);
  if (!file_or.ok()) {
    co_return file_or.error();
  }
  co_return (*file_or)->Seek(offset, whence);
}

SimTask<Result<int>> FileService::Dup2(Uproc& caller, int oldfd, int newfd) {
  SyscallScope scope(kernel_, caller, Sys::kDup2);
  co_await scope.Enter();
  co_return caller.fds->Dup2(oldfd, newfd);
}

SimTask<Result<void>> FileService::Unlink(Uproc& caller, std::string path) {
  SyscallScope scope(kernel_, caller, Sys::kUnlink);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().vfs_op);
  co_return vfs_.Unlink(path);
}

SimTask<Result<void>> FileService::Rename(Uproc& caller, std::string from, std::string to) {
  SyscallScope scope(kernel_, caller, Sys::kRename);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().vfs_op);
  co_return vfs_.Rename(from, to);
}

SimTask<Result<Capability>> FileService::MmapFile(Uproc& caller, std::string path,
                                                  uint64_t length) {
  SyscallScope scope(kernel_, caller, Sys::kMmapFile);
  co_await scope.Enter();
  Machine& machine = kernel_.machine();
  if (length == 0 || length % kPageSize != 0) {
    co_return Error{Code::kErrInval, "mmap length must be a non-zero page multiple"};
  }
  kernel_.machine().Charge(kernel_.costs().vfs_op);  // path lookup
  std::shared_ptr<RamFs::Inode> inode = vfs_.InodeOf(path);
  if (inode == nullptr) {
    co_return Error{Code::kErrNoEnt, "mmap of a nonexistent file"};
  }
  const uint64_t pages = length / kPageSize;
  const UprocLayout& layout = kernel_.layout();
  const uint64_t zone_end = caller.base + layout.mmap_off() + layout.mmap_size();
  // Free-VA scan instead of the anon bump cursor: file windows may interleave with anon
  // allocations, and a fresh scan can never collide with either.
  const std::optional<uint64_t> run =
      caller.page_table->FindUnmappedRun(caller.mmap_cursor, zone_end, pages);
  if (!run.has_value()) {
    co_return Error{Code::kErrNoMem, "mmap zone exhausted"};
  }
  const uint64_t addr = *run;
  // MAP_PRIVATE read view: write permission arrives only through the CoW break (the cache's
  // own reference keeps every clean page's refcount above one).
  const uint32_t clean_flags = (kPteRw & ~kPteWrite) | kPteCow;
  if (kernel_.config().demand_paging) {
    for (uint64_t off = 0; off < pages; ++off) {
      machine.Charge(kernel_.costs().pte_dup);
      caller.page_table->Map(addr + off * kPageSize, kInvalidFrame,
                             kPteNotPresent | kPteFileBacked);
    }
  } else {
    for (uint64_t off = 0; off < pages; ++off) {
      auto frame = kernel_.page_cache().GetFrame(inode, off);
      if (!frame.ok()) {
        // All-or-nothing: drop the pages (and cache references) this call already mapped.
        for (uint64_t undo = 0; undo < off; ++undo) {
          machine.frames().Release(caller.page_table->Unmap(addr + undo * kPageSize));
        }
        co_return frame.error();
      }
      machine.Charge(kernel_.costs().pte_update);
      caller.page_table->Map(addr + off * kPageSize, *frame, clean_flags);
    }
  }
  caller.mmap_cursor = addr + length;
  caller.file_mappings.push_back(Uproc::FileMapping{addr, pages, /*start_page=*/0, inode});
  co_return caller.regs.ddc.WithBounds(addr, length);
}

SimTask<Result<uint64_t>> FileService::FileSize(Uproc& caller, std::string path) {
  SyscallScope scope(kernel_, caller, Sys::kFileSize);
  co_await scope.Enter();
  kernel_.machine().Charge(kernel_.costs().vfs_op);
  co_return vfs_.FileSize(path);
}

}  // namespace ufork
