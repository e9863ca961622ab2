// Mini-shell demo (paper use-case U1: fork + exec): run filter programs with redirections and
// a pipeline, all inside the single address space.
//
//   $ ./shell_demo
#include <cstdio>

#include "src/apps/shell.h"
#include "src/baseline/system.h"

using namespace ufork;

int main() {
  KernelConfig config;
  config.layout.heap_size = 1 * kMiB;
  auto kernel = MakeUforkKernel(config);
  RegisterShellUtilities(*kernel);

  auto pid = kernel->Spawn(
      MakeGuestEntry([](Guest& g) -> SimTask<void> {
        Shell shell(g);
        auto fd = co_await g.Open("/etc/motd", kOpenWrite | kOpenCreate);
        UF_CHECK(fd.ok());
        auto motd = g.PlaceString("welcome to ufork\nfork responsibly\n");
        UF_CHECK(motd.ok());
        UF_CHECK((co_await g.Write(*fd, *motd, 34)).ok());
        UF_CHECK((co_await g.Close(*fd)).ok());

        const char* lines[] = {
            "cat < /etc/motd > /tmp/copy.txt",
            "upper < /etc/motd > /tmp/shout.txt",
            "seq 12 > /tmp/numbers.txt",
            "seq 1000 | count > /tmp/wc.txt",
            "stats > /tmp/stats.txt",
            "totally-not-a-program",
        };
        for (const char* line : lines) {
          auto status = co_await shell.Run(line);
          std::printf("$ %-40s -> exit %d\n", line, status.ok() ? *status : -1);
        }
        for (const char* path : {"/tmp/shout.txt", "/tmp/wc.txt", "/tmp/stats.txt"}) {
          auto contents = co_await shell.Slurp(path);
          UF_CHECK(contents.ok());
          std::printf("--- %s ---\n%s", path, contents->c_str());
        }
        std::printf("(each command line cost one fork + one exec; %lu forks total)\n",
                    g.kernel().stats().forks);
      }),
      "sh");
  UF_CHECK(pid.ok());
  kernel->Run();
  return 0;
}
