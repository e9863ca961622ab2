#include "src/apps/shell.h"

#include <algorithm>
#include <sstream>

#include "src/kernel/proc_report.h"

namespace ufork {
namespace {

// argv convention: before exec, the child writes its argument vector to /proc/argv.<pid>;
// the exec'd image — which keeps its PID — reads it back. The moral equivalent of
// /proc/self/cmdline, built from pieces fork/exec guarantee to preserve.
std::string ArgvPath(Pid pid) { return "/proc/argv." + std::to_string(pid); }

SimTask<Result<void>> WriteOwnArgv(Guest& g, const std::vector<std::string>& args) {
  std::string blob;
  for (const std::string& arg : args) {
    blob += arg;
    blob.push_back('\0');
  }
  auto self = co_await g.GetPid();
  if (!self.ok()) {
    co_return self.error();
  }
  auto fd = co_await g.Open(ArgvPath(*self), kOpenWrite | kOpenCreate | kOpenTrunc);
  if (!fd.ok()) {
    co_return fd.error();
  }
  if (!blob.empty()) {
    auto buf = g.PlaceString(blob);
    if (!buf.ok()) {
      co_return buf.error();
    }
    auto written = co_await g.Write(*fd, *buf, blob.size());
    if (!written.ok()) {
      co_return written.error();
    }
  }
  co_return co_await g.Close(*fd);
}

SimTask<Result<std::vector<std::string>>> ReadOwnArgv(Guest& g) {
  auto self = co_await g.GetPid();
  if (!self.ok()) {
    co_return self.error();
  }
  auto size = co_await g.FileSize(ArgvPath(*self));
  if (!size.ok()) {
    co_return std::vector<std::string>{};  // no argv file: empty argument vector
  }
  auto fd = co_await g.Open(ArgvPath(*self), kOpenRead);
  if (!fd.ok()) {
    co_return fd.error();
  }
  std::string blob;
  if (*size > 0) {
    auto buf = g.Malloc(*size);
    if (!buf.ok()) {
      co_return buf.error();
    }
    auto n = co_await g.Read(*fd, *buf, *size);
    if (!n.ok()) {
      co_return n.error();
    }
    auto bytes = g.FetchBytes(*buf, static_cast<uint64_t>(*n));
    if (!bytes.ok()) {
      co_return bytes.error();
    }
    blob.assign(reinterpret_cast<const char*>(bytes->data()), bytes->size());
  }
  (void)co_await g.Close(*fd);
  std::vector<std::string> args;
  std::string current;
  for (char c : blob) {
    if (c == '\0') {
      args.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  co_return args;
}

// Streams fd 0 to a transform and writes the result to fd 1. The workhorse of the filters.
SimTask<Result<void>> FilterLoop(Guest& g,
                                 const std::function<std::string(std::string_view)>& transform) {
  auto in_buf = g.Malloc(4096);
  auto out_buf = g.Malloc(8192);
  if (!in_buf.ok() || !out_buf.ok()) {
    co_return Code::kErrNoMem;
  }
  for (;;) {
    auto n = co_await g.Read(kShellStdin, *in_buf, 4096);
    if (!n.ok()) {
      co_return n.error();
    }
    if (*n == 0) {
      co_return OkResult();
    }
    auto bytes = g.FetchBytes(*in_buf, static_cast<uint64_t>(*n));
    if (!bytes.ok()) {
      co_return bytes.error();
    }
    const std::string out = transform(
        std::string_view(reinterpret_cast<const char*>(bytes->data()), bytes->size()));
    if (out.empty()) {
      continue;
    }
    auto staged = g.PlaceBytes(std::as_bytes(std::span(out.data(), out.size())));
    if (!staged.ok()) {
      co_return staged.error();
    }
    auto written = co_await g.Write(kShellStdout, *staged, out.size());
    if (!written.ok()) {
      co_return written.error();
    }
    (void)g.Free(*staged);
  }
}

SimTask<Result<std::string>> SlurpFd(Guest& g, int fd) {
  std::string all;
  auto buf = g.Malloc(4096);
  if (!buf.ok()) {
    co_return buf.error();
  }
  for (;;) {
    auto n = co_await g.Read(fd, *buf, 4096);
    if (!n.ok()) {
      co_return n.error();
    }
    if (*n == 0) {
      co_return all;
    }
    auto bytes = g.FetchBytes(*buf, static_cast<uint64_t>(*n));
    if (!bytes.ok()) {
      co_return bytes.error();
    }
    all.append(reinterpret_cast<const char*>(bytes->data()), bytes->size());
  }
}

SimTask<Result<void>> WriteAll(Guest& g, int fd, const std::string& data) {
  if (data.empty()) {
    co_return OkResult();
  }
  auto staged = g.PlaceString(data);
  if (!staged.ok()) {
    co_return staged.error();
  }
  auto written = co_await g.Write(fd, *staged, data.size());
  if (!written.ok()) {
    co_return written.error();
  }
  co_return OkResult();
}

}  // namespace

Result<ShellCommand> ParseCommandLine(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) {
    tokens.push_back(token);
  }
  if (tokens.empty()) {
    return Error{Code::kErrInval, "empty command line"};
  }
  ShellCommand command;
  command.program = tokens[0];
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i] == "<" || tokens[i] == ">" || tokens[i] == "|") {
      if (i + 1 >= tokens.size()) {
        return Error{Code::kErrInval, "dangling operator: " + tokens[i]};
      }
      if (tokens[i] == "<") {
        command.stdin_file = tokens[++i];
      } else if (tokens[i] == ">") {
        command.stdout_file = tokens[++i];
      } else {
        command.pipe_to = tokens[++i];
        // The only thing allowed after the second stage is an output redirection.
        if (i + 2 < tokens.size() && tokens[i + 1] == ">") {
          command.pipe_stdout_file = tokens[i + 2];
          i += 2;
        }
        if (i + 1 < tokens.size()) {
          return Error{Code::kErrInval, "unexpected tokens after the pipeline stage"};
        }
      }
    } else {
      command.args.push_back(tokens[i]);
    }
  }
  return command;
}

SimTask<Result<Pid>> Shell::LaunchStage(const ShellCommand& command, int stdin_fd,
                                        int stdout_fd, std::vector<int> close_fds) {
  Guest& g = *guest_;
  // Copies for the child closure — hoisted per the GCC 12 rule (guest.h).
  GuestFn child_fn = [command, stdin_fd, stdout_fd,
                      close_fds](Guest& cg) -> SimTask<void> {
    // Between fork and exec: drop the inherited pipe ends this stage does not use (EOF
    // propagation), wire the standard descriptors, then replace the image.
    for (const int fd : close_fds) {
      (void)co_await cg.Close(fd);
    }
    int in_fd = stdin_fd;
    if (!command.stdin_file.empty()) {
      auto fd = co_await cg.Open(command.stdin_file, kOpenRead);
      if (!fd.ok()) {
        co_await cg.Exit(127);
      }
      in_fd = *fd;
    }
    int out_fd = stdout_fd;
    if (!command.stdout_file.empty()) {
      auto fd = co_await cg.Open(command.stdout_file, kOpenWrite | kOpenCreate | kOpenTrunc);
      if (!fd.ok()) {
        co_await cg.Exit(127);
      }
      out_fd = *fd;
    }
    if (in_fd >= 0 && in_fd != kShellStdin) {
      UF_CHECK((co_await cg.Dup2(in_fd, kShellStdin)).ok());
      (void)co_await cg.Close(in_fd);
    }
    if (out_fd >= 0 && out_fd != kShellStdout) {
      UF_CHECK((co_await cg.Dup2(out_fd, kShellStdout)).ok());
      (void)co_await cg.Close(out_fd);
    }
    UF_CHECK((co_await WriteOwnArgv(cg, command.args)).ok());
    auto failed = co_await cg.Exec(command.program);
    // Only reached when exec failed (e.g. unknown program).
    UF_CHECK(!failed.ok());
    co_await cg.Exit(127);
  };
  co_return co_await g.Fork(std::move(child_fn));
}

SimTask<Result<int>> Shell::Run(const std::string& line) {
  Guest& g = *guest_;
  auto parsed = ParseCommandLine(line);
  if (!parsed.ok()) {
    co_return parsed.error();
  }
  const ShellCommand command = *parsed;

  if (command.pipe_to.empty()) {
    std::vector<int> no_fds;
    auto child = co_await LaunchStage(command, -1, -1, std::move(no_fds));
    if (!child.ok()) {
      co_return child.error();
    }
    auto waited = co_await g.Wait();
    if (!waited.ok()) {
      co_return waited.error();
    }
    co_return waited->status;
  }

  // Two-stage pipeline: stage1 | stage2.
  auto pipe_fds = co_await g.Pipe();
  if (!pipe_fds.ok()) {
    co_return pipe_fds.error();
  }
  const auto [pipe_r, pipe_w] = *pipe_fds;
  ShellCommand stage1 = command;
  stage1.pipe_to.clear();
  std::vector<int> stage1_close = {pipe_r};
  auto first = co_await LaunchStage(stage1, -1, pipe_w, std::move(stage1_close));
  if (!first.ok()) {
    co_return first.error();
  }
  ShellCommand stage2;
  stage2.program = command.pipe_to;
  stage2.stdout_file = command.pipe_stdout_file;
  std::vector<int> stage2_close = {pipe_w};
  auto second = co_await LaunchStage(stage2, pipe_r, -1, std::move(stage2_close));
  if (!second.ok()) {
    co_return second.error();
  }
  // The shell's own copies must close so EOF propagates through the pipeline.
  (void)co_await g.Close(pipe_r);
  (void)co_await g.Close(pipe_w);
  int last_status = 0;
  for (int reaped = 0; reaped < 2; ++reaped) {
    auto waited = co_await g.Wait();
    if (!waited.ok()) {
      co_return waited.error();
    }
    if (waited->pid == *second) {
      last_status = waited->status;
    }
  }
  co_return last_status;
}

SimTask<Result<std::string>> Shell::Slurp(const std::string& path) {
  Guest& g = *guest_;
  auto fd = co_await g.Open(path, kOpenRead);
  if (!fd.ok()) {
    co_return fd.error();
  }
  auto contents = co_await SlurpFd(g, *fd);
  (void)co_await g.Close(*fd);
  co_return contents;
}

void RegisterShellUtilities(Kernel& kernel) {
  kernel.procs().RegisterProgram("cat", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto done = co_await FilterLoop(g, [](std::string_view s) { return std::string(s); });
    co_await g.Exit(done.ok() ? 0 : 1);
  }));
  kernel.procs().RegisterProgram("upper", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto done = co_await FilterLoop(g, [](std::string_view s) {
      std::string out(s);
      std::transform(out.begin(), out.end(), out.begin(),
                     [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
      return out;
    });
    co_await g.Exit(done.ok() ? 0 : 1);
  }));
  kernel.procs().RegisterProgram("count", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    // Counts lines and bytes of stdin, like `wc -lc`.
    auto all = co_await SlurpFd(g, kShellStdin);
    if (!all.ok()) {
      co_await g.Exit(1);
    }
    const uint64_t lines =
        static_cast<uint64_t>(std::count(all->begin(), all->end(), '\n'));
    auto written = co_await WriteAll(
        g, kShellStdout, std::to_string(lines) + " " + std::to_string(all->size()) + "\n");
    co_await g.Exit(written.ok() ? 0 : 1);
  }));
  kernel.procs().RegisterProgram("seq", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    auto args = co_await ReadOwnArgv(g);
    if (!args.ok() || args->empty()) {
      co_await g.Exit(2);
    }
    const long n = std::strtol((*args)[0].c_str(), nullptr, 10);
    std::string out;
    for (long i = 1; i <= n; ++i) {
      out += std::to_string(i) + "\n";
    }
    auto written = co_await WriteAll(g, kShellStdout, out);
    co_await g.Exit(written.ok() ? 0 : 1);
  }));
  kernel.procs().RegisterProgram("stats", MakeGuestEntry([](Guest& g) -> SimTask<void> {
    // Prints the kernel's per-syscall counters and fault/fork summary — the simulated
    // /proc/stat (+ /proc/vmstat: the fault-around and reclaim counters live in the summary).
    auto written = co_await WriteAll(
        g, kShellStdout, SyscallTableReport(g.kernel()) + KernelSummaryReport(g.kernel()));
    co_await g.Exit(written.ok() ? 0 : 1);
  }));
}

}  // namespace ufork
