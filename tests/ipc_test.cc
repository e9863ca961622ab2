// Edge-case tests for the IPC and filesystem substrates: pipe blocking/EOF/EPIPE semantics,
// message-queue boundaries, VFS seek/append/rename behaviour, and descriptor-table mechanics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/baseline/system.h"
#include "src/guest/guest.h"
#include "tests/guest_test_util.h"

namespace ufork {
namespace {

void RunGuest(GuestFn fn, int cores = 4) {
  KernelConfig config;
  config.cores = cores;
  config.layout.heap_size = 1 * kMiB;
  auto kernel = MakeUforkKernel(config);
  auto pid = kernel->Spawn(MakeGuestEntry(std::move(fn)), "ipc");
  ASSERT_TRUE(pid.ok());
  kernel->Run();
}

// --- pipes ---------------------------------------------------------------------------------

TEST(PipeSemantics, WriteToClosedReadEndIsEpipe) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto pipe_fds = co_await g.Pipe();
    CO_ASSERT_OK(pipe_fds);
    const auto [rfd, wfd] = *pipe_fds;
    CO_ASSERT_OK(co_await g.Close(rfd));
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    auto written = co_await g.Write(wfd, *buf, 8);
    EXPECT_EQ(written.code(), Code::kErrPipe);
  });
}

TEST(PipeSemantics, ReadOnWriteEndAndViceVersaRejected) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto pipe_fds = co_await g.Pipe();
    CO_ASSERT_OK(pipe_fds);
    const auto [rfd, wfd] = *pipe_fds;
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    EXPECT_EQ((co_await g.Read(wfd, *buf, 8)).code(), Code::kErrBadFd);
    EXPECT_EQ((co_await g.Write(rfd, *buf, 8)).code(), Code::kErrBadFd);
    co_return;
  });
}

TEST(PipeSemantics, WriterBlocksWhenFullReaderDrains) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto pipe_fds = co_await g.Pipe();
    CO_ASSERT_OK(pipe_fds);
    const auto [rfd, wfd] = *pipe_fds;
    // Child fills the pipe beyond capacity and reports how much it wrote.
    auto child = co_await g.Fork([rfd = rfd, wfd = wfd](Guest& cg) -> SimTask<void> {
      (void)co_await cg.Close(rfd);
      auto big = cg.Malloc(96 * 1024);  // 1.5x pipe capacity
      CO_ASSERT_OK(big);
      auto n = co_await cg.Write(wfd, *big, 96 * 1024);  // must block, then complete
      CO_ASSERT_OK(n);
      co_await cg.Exit(*n == 96 * 1024 ? 0 : 1);
    });
    CO_ASSERT_OK(child);
    CO_ASSERT_OK(co_await g.Close(wfd));
    // Parent drains slowly.
    auto buf = g.Malloc(16 * 1024);
    CO_ASSERT_OK(buf);
    uint64_t total = 0;
    for (;;) {
      auto n = co_await g.Read(rfd, *buf, 16 * 1024);
      CO_ASSERT_OK(n);
      if (*n == 0) {
        break;
      }
      total += static_cast<uint64_t>(*n);
    }
    EXPECT_EQ(total, 96u * 1024u);
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    EXPECT_EQ(waited->status, 0);
  });
}

TEST(PipeSemantics, BytesArriveInOrderAcrossManyWrites) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto pipe_fds = co_await g.Pipe();
    CO_ASSERT_OK(pipe_fds);
    const auto [rfd, wfd] = *pipe_fds;
    auto child = co_await g.Fork([rfd = rfd, wfd = wfd](Guest& cg) -> SimTask<void> {
      (void)co_await cg.Close(rfd);
      auto buf = cg.Malloc(256);
      CO_ASSERT_OK(buf);
      for (uint32_t i = 0; i < 200; ++i) {
        CO_ASSERT_OK(cg.StoreAt<uint32_t>(*buf, 0, i));
        CO_ASSERT_OK(co_await cg.Write(wfd, *buf, 4));
      }
      co_await cg.Exit(0);
    });
    CO_ASSERT_OK(child);
    CO_ASSERT_OK(co_await g.Close(wfd));
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    for (uint32_t expected = 0; expected < 200; ++expected) {
      auto n = co_await g.Read(rfd, *buf, 4);
      CO_ASSERT_OK(n);
      CO_ASSERT_EQ(*n, 4);
      auto v = g.LoadAt<uint32_t>(*buf, 0);
      CO_ASSERT_OK(v);
      CO_ASSERT_EQ(*v, expected);
    }
    (void)co_await g.Wait();
  });
}

// Many concurrent ping-pong pairs: each root forks a partner and bounces a token through a
// down pipe and an up pipe, so every round blocks and wakes both sides on 4 cores.
constexpr int kPairs = 8;
constexpr int kRounds = 16;
constexpr uint64_t kTokenBytes = 8;

TEST(PipeSemantics, PingPongAcrossForkManyPairs) {
  KernelConfig config;
  config.cores = 4;
  config.layout.heap_size = 1 * kMiB;
  auto kernel = MakeUforkKernel(config);
  std::vector<int> statuses;
  for (int pair = 0; pair < kPairs; ++pair) {
    GuestFn root = [&statuses](Guest& g) -> SimTask<void> {
      auto down = co_await g.Pipe();  // parent -> child
      CO_ASSERT_OK(down);
      auto up = co_await g.Pipe();  // child -> parent
      CO_ASSERT_OK(up);
      const auto [drfd, dwfd] = *down;
      const auto [urfd, uwfd] = *up;
      auto child = co_await g.Fork(
          [drfd = drfd, dwfd = dwfd, urfd = urfd, uwfd = uwfd](Guest& cg) -> SimTask<void> {
            (void)co_await cg.Close(dwfd);
            (void)co_await cg.Close(urfd);
            auto buf = cg.Malloc(kTokenBytes);
            CO_ASSERT_OK(buf);
            for (int round = 0; round < kRounds; ++round) {
              auto n = co_await cg.Read(drfd, *buf, kTokenBytes);
              CO_ASSERT_OK(n);
              CO_ASSERT_EQ(static_cast<uint64_t>(*n), kTokenBytes);
              CO_ASSERT_OK(co_await cg.Write(uwfd, *buf, kTokenBytes));
            }
            co_await cg.Exit(7);
          });
      CO_ASSERT_OK(child);
      CO_ASSERT_OK(co_await g.Close(drfd));
      CO_ASSERT_OK(co_await g.Close(uwfd));
      auto token = g.Malloc(kTokenBytes);
      CO_ASSERT_OK(token);
      for (int round = 0; round < kRounds; ++round) {
        CO_ASSERT_OK(co_await g.Write(dwfd, *token, kTokenBytes));
        auto n = co_await g.Read(urfd, *token, kTokenBytes);
        CO_ASSERT_OK(n);
        CO_ASSERT_EQ(static_cast<uint64_t>(*n), kTokenBytes);
      }
      CO_ASSERT_OK(co_await g.Close(dwfd));
      auto waited = co_await g.Wait();
      CO_ASSERT_OK(waited);
      statuses.push_back(waited->status);
    };
    auto pid = kernel->Spawn(MakeGuestEntry(std::move(root)), "pp" + std::to_string(pair));
    ASSERT_TRUE(pid.ok());
  }
  kernel->Run();
  EXPECT_EQ(statuses, std::vector<int>(kPairs, 7));
}

// --- message queues ------------------------------------------------------------------------

TEST(MqSemantics, MessageBoundariesPreserved) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen("/mq/bounds", true);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("0123456789");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 10));
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 4));
    auto buf = g.Malloc(64);
    CO_ASSERT_OK(buf);
    auto first = co_await g.Read(*fd, *buf, 64);
    CO_ASSERT_OK(first);
    EXPECT_EQ(*first, 10) << "one receive = one whole message, not a byte stream";
    auto second = co_await g.Read(*fd, *buf, 64);
    CO_ASSERT_OK(second);
    EXPECT_EQ(*second, 4);
    co_return;
  });
}

TEST(MqSemantics, ShortReceiveTruncates) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen("/mq/trunc", true);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("abcdefgh");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 8));
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    auto n = co_await g.Read(*fd, *buf, 3);
    CO_ASSERT_OK(n);
    EXPECT_EQ(*n, 3);
    co_return;
  });
}

TEST(MqSemantics, OpenWithoutCreateFails) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.MqOpen("/mq/nonexistent", false);
    EXPECT_EQ(fd.code(), Code::kErrNoEnt);
    co_return;
  });
}

TEST(MqSemantics, QueueSharedByName) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto a = co_await g.MqOpen("/mq/shared", true);
    auto b = co_await g.MqOpen("/mq/shared", true);  // same underlying queue
    CO_ASSERT_OK(a);
    CO_ASSERT_OK(b);
    auto msg = g.PlaceString("x");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*a, *msg, 1));
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    auto n = co_await g.Read(*b, *buf, 16);
    CO_ASSERT_OK(n);
    EXPECT_EQ(*n, 1);
    co_return;
  });
}

// --- VFS ---------------------------------------------------------------------------------------

TEST(VfsSemantics, SeekSetCurEnd) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/seek", kOpenRead | kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("0123456789");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 10));
    auto pos = co_await g.Seek(*fd, 2, kSeekSet);
    CO_ASSERT_OK(pos);
    EXPECT_EQ(*pos, 2);
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    auto n = co_await g.Read(*fd, *buf, 3);
    CO_ASSERT_OK(n);
    auto bytes = g.FetchBytes(*buf, 3);
    CO_ASSERT_OK(bytes);
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes->data()), 3), "234");
    pos = co_await g.Seek(*fd, -2, kSeekEnd);
    CO_ASSERT_OK(pos);
    EXPECT_EQ(*pos, 8);
    pos = co_await g.Seek(*fd, 1, kSeekCur);
    CO_ASSERT_OK(pos);
    EXPECT_EQ(*pos, 9);
    EXPECT_EQ((co_await g.Seek(*fd, -100, kSeekSet)).code(), Code::kErrInval);
    co_return;
  });
}

TEST(VfsSemantics, AppendModeWritesAtEnd) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/log", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("base");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 4));
    CO_ASSERT_OK(co_await g.Close(*fd));
    auto afd = co_await g.Open("/log", kOpenWrite | kOpenAppend);
    CO_ASSERT_OK(afd);
    CO_ASSERT_OK(co_await g.Write(*afd, *msg, 4));
    auto size = co_await g.FileSize("/log");
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 8u);
    co_return;
  });
}

TEST(VfsSemantics, TruncateOnOpen) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/t", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto msg = g.PlaceString("longcontent");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 11));
    auto tfd = co_await g.Open("/t", kOpenWrite | kOpenTrunc);
    CO_ASSERT_OK(tfd);
    auto size = co_await g.FileSize("/t");
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 0u);
    co_return;
  });
}

TEST(VfsSemantics, RenameReplacesTarget) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto a = co_await g.Open("/a", kOpenWrite | kOpenCreate);
    auto b = co_await g.Open("/b", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(a);
    CO_ASSERT_OK(b);
    auto msg = g.PlaceString("A-content");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*a, *msg, 9));
    CO_ASSERT_OK(co_await g.Rename("/a", "/b"));
    auto size = co_await g.FileSize("/b");
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 9u);
    EXPECT_EQ((co_await g.FileSize("/a")).code(), Code::kErrNoEnt);
    co_return;
  });
}

// Writes `len` pattern bytes at fd's current offset `pos` through guest buffer `buf` and
// mirrors them into the byte-vector reference `ref`, zero-extending it over any gap.
SimTask<Result<void>> WriteMirrored(Guest& g, int fd, const Capability& buf, uint64_t pos,
                                    uint64_t len, std::vector<std::byte>& ref) {
  std::vector<std::byte> bytes(len);
  for (uint64_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::byte>((pos + i) * 7 + len);
  }
  if (auto staged = g.WriteBytes(buf, buf.base(), bytes); !staged.ok()) {
    co_return staged.error();
  }
  auto n = co_await g.Write(fd, buf, len);
  if (!n.ok()) {
    co_return n.error();
  }
  if (ref.size() < pos + len) {
    ref.resize(pos + len);
  }
  std::copy(bytes.begin(), bytes.end(), ref.begin() + static_cast<ptrdiff_t>(pos));
  co_return OkResult();
}

// Reads `path` whole in 1000-byte chunks, which straddle every 4 KiB block edge, and checks
// it against `ref`.
SimTask<void> ExpectFileEquals(Guest& g, const std::string& path, const Capability& buf,
                               const std::vector<std::byte>& ref) {
  auto size = co_await g.FileSize(path);
  CO_ASSERT_OK(size);
  EXPECT_EQ(*size, ref.size());
  auto fd = co_await g.Open(path, kOpenRead);
  CO_ASSERT_OK(fd);
  std::vector<std::byte> got;
  for (;;) {
    auto n = co_await g.Read(*fd, buf, 1000);
    CO_ASSERT_OK(n);
    if (*n == 0) {
      break;
    }
    auto bytes = g.FetchBytes(buf, static_cast<uint64_t>(*n));
    CO_ASSERT_OK(bytes);
    got.insert(got.end(), bytes->begin(), bytes->end());
  }
  EXPECT_TRUE(got == ref) << path << ": " << got.size() << " bytes read, " << ref.size()
                          << " expected";
  CO_ASSERT_OK(co_await g.Close(*fd));
}

TEST(VfsSemantics, BlockFileMatchesByteVectorReference) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(3 * kVfsBlockSize);
    CO_ASSERT_OK(buf);
    auto fd = co_await g.Open("/blocks", kOpenRead | kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    std::vector<std::byte> ref;
    // An unaligned write spanning three blocks.
    CO_ASSERT_OK(co_await g.Seek(*fd, 100, kSeekSet));
    CO_ASSERT_OK(co_await WriteMirrored(g, *fd, *buf, 100, 2 * kVfsBlockSize + 50, ref));
    co_await ExpectFileEquals(g, "/blocks", *buf, ref);
    // An overwrite in the middle, across the first block edge.
    CO_ASSERT_OK(co_await g.Seek(*fd, kVfsBlockSize - 10, kSeekSet));
    CO_ASSERT_OK(co_await WriteMirrored(g, *fd, *buf, kVfsBlockSize - 10, 30, ref));
    co_await ExpectFileEquals(g, "/blocks", *buf, ref);
    // A seek past EOF and a write there: the gap, two blocks of it, reads zero.
    const uint64_t far = ref.size() + 2 * kVfsBlockSize + 5;
    CO_ASSERT_OK(co_await g.Seek(*fd, static_cast<int64_t>(far), kSeekSet));
    CO_ASSERT_OK(co_await WriteMirrored(g, *fd, *buf, far, 17, ref));
    co_await ExpectFileEquals(g, "/blocks", *buf, ref);
    CO_ASSERT_OK(co_await g.Close(*fd));
    // Append lands at the end whatever the offset.
    auto afd = co_await g.Open("/blocks", kOpenWrite | kOpenAppend);
    CO_ASSERT_OK(afd);
    CO_ASSERT_OK(co_await WriteMirrored(g, *afd, *buf, ref.size(), kVfsBlockSize + 1, ref));
    CO_ASSERT_OK(co_await g.Close(*afd));
    co_await ExpectFileEquals(g, "/blocks", *buf, ref);
    // Rename keeps the bytes; the old name is gone.
    CO_ASSERT_OK(co_await g.Rename("/blocks", "/moved"));
    co_await ExpectFileEquals(g, "/moved", *buf, ref);
    EXPECT_EQ((co_await g.FileSize("/blocks")).code(), Code::kErrNoEnt);
    // Truncate-on-open empties the file, and a short rewrite reads back alone.
    auto tfd = co_await g.Open("/moved", kOpenWrite | kOpenTrunc);
    CO_ASSERT_OK(tfd);
    ref.clear();
    co_await ExpectFileEquals(g, "/moved", *buf, ref);
    CO_ASSERT_OK(co_await WriteMirrored(g, *tfd, *buf, 0, 10, ref));
    co_await ExpectFileEquals(g, "/moved", *buf, ref);
    co_return;
  });
}

TEST(VfsSemantics, MmapOfFileEndingMidBlockReadsZeroTail) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(kVfsBlockSize);
    CO_ASSERT_OK(buf);
    const std::vector<std::byte> pattern(kVfsBlockSize, std::byte{0xab});
    CO_ASSERT_OK(g.WriteBytes(*buf, buf->base(), pattern));
    auto fd = co_await g.Open("/short", kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    CO_ASSERT_OK(co_await g.Write(*fd, *buf, kVfsBlockSize));
    CO_ASSERT_OK(co_await g.Write(*fd, *buf, 100));  // the second block ends mid-way
    CO_ASSERT_OK(co_await g.Close(*fd));
    auto map = co_await g.MmapFile("/short", 2 * kPageSize);
    CO_ASSERT_OK(map);
    auto bytes = g.FetchBytes(*map, 2 * kPageSize);
    CO_ASSERT_OK(bytes);
    for (uint64_t i = 0; i < 2 * kPageSize; ++i) {
      const std::byte want = i < kVfsBlockSize + 100 ? std::byte{0xab} : std::byte{0};
      CO_ASSERT_TRUE((*bytes)[i] == want);
    }
    co_return;
  });
}

// --- descriptor table -----------------------------------------------------------------------

TEST(FdSemantics, Dup2SharesOffset) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto fd = co_await g.Open("/dup", kOpenRead | kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(fd);
    auto dup = co_await g.Dup2(*fd, 7);
    CO_ASSERT_OK(dup);
    EXPECT_EQ(*dup, 7);
    auto msg = g.PlaceString("xyz");
    CO_ASSERT_OK(msg);
    CO_ASSERT_OK(co_await g.Write(*fd, *msg, 3));
    // The duplicate shares the open file description, hence the offset.
    auto pos = co_await g.Seek(7, 0, kSeekCur);
    CO_ASSERT_OK(pos);
    EXPECT_EQ(*pos, 3);
    // Closing the original keeps the duplicate usable.
    CO_ASSERT_OK(co_await g.Close(*fd));
    CO_ASSERT_OK(co_await g.Write(7, *msg, 3));
    auto size = co_await g.FileSize("/dup");
    CO_ASSERT_OK(size);
    EXPECT_EQ(*size, 6u);
    co_return;
  });
}

TEST(FdSemantics, BadDescriptorsRejected) {
  RunGuest([](Guest& g) -> SimTask<void> {
    auto buf = g.Malloc(16);
    CO_ASSERT_OK(buf);
    EXPECT_EQ((co_await g.Read(99, *buf, 4)).code(), Code::kErrBadFd);
    EXPECT_EQ((co_await g.Close(-1)).code(), Code::kErrBadFd);
    EXPECT_EQ((co_await g.Dup2(99, 5)).code(), Code::kErrBadFd);
    EXPECT_EQ((co_await g.Dup2(0, kMaxFds + 3)).code(), Code::kErrBadFd);
    co_return;
  });
}

// --- capability-tag integrity across IPC (DESIGN.md §4.14) ----------------------------------
//
// IPC transfer buffers move *bytes*, never tags: a write whose source bytes overlap a stored
// capability must land tag-stripped at the receiver, even when the destination granule held a
// valid capability the moment before the read overwrote it. Anything else is a laundering
// channel — fork a child, pipe your capability's bytes to it, and the child owns your
// authority. Checked for pipe (across a fork boundary), message queue, and VFS file, on all
// three systems × {eager, demand paging}.

// Seeds `slot` with a live capability (the receiver-side granule is *not* pristine), then
// overwrites its 16 capability bytes from `fd` and proves the reload is untagged with the
// source cap's byte image intact. `byte_source` may be null for cross-μprocess transfers,
// where the sender's capability encodes the sender's own (backend-placed) addresses — there
// only the tag-stripping half is backend-independent.
SimTask<void> ReadOverCapAndCheckStripped(Guest& g, int fd, const Capability& slot,
                                          const Capability* byte_source) {
  CO_ASSERT_OK(g.StoreCap(slot, slot.base(), g.ddc().WithAddress(slot.base())));
  auto seeded = g.LoadCap(slot, slot.base());
  CO_ASSERT_OK(seeded);
  CO_ASSERT_TRUE(seeded->tag());
  auto read = co_await g.Read(fd, slot, kCapSize);
  CO_ASSERT_OK(read);
  CO_ASSERT_EQ(*read, static_cast<int64_t>(kCapSize));
  auto laundered = g.LoadCap(slot, slot.base());
  CO_ASSERT_OK(laundered);
  EXPECT_FALSE(laundered->tag()) << "IPC delivered bytes must never carry a tag";
  if (byte_source == nullptr) {
    co_return;
  }
  // The byte image went through — only the out-of-band tag was stripped.
  for (uint64_t off = 0; off < kCapSize; off += 8) {
    auto got = g.Load<uint64_t>(slot, slot.base() + off);
    auto want = g.Load<uint64_t>(*byte_source, byte_source->base() + off);
    CO_ASSERT_OK(got);
    CO_ASSERT_OK(want);
    EXPECT_EQ(*got, *want);
  }
}

GuestFn MakeTagIntegrityGuest() {
  return [](Guest& g) -> SimTask<void> {
    // A source granule holding a live capability whose raw bytes every channel will carry.
    auto src = g.Malloc(32);
    CO_ASSERT_OK(src);
    CO_ASSERT_OK(g.StoreCap(*src, src->base(), g.ddc().WithAddress(src->base())));
    auto dst = g.Malloc(32);
    CO_ASSERT_OK(dst);

    // Pipe, across the fork boundary: the child writes its *own* copy of the capability's
    // bytes (fork preserved the tag inside the child's granule — that is μFork's job); the
    // pipe still must not let the tag cross back.
    auto pipe_fds = co_await g.Pipe();
    CO_ASSERT_OK(pipe_fds);
    const auto [rfd, wfd] = *pipe_fds;
    auto child = co_await g.Fork([rfd = rfd, wfd = wfd](Guest& cg) -> SimTask<void> {
      (void)co_await cg.Close(rfd);
      auto mine = cg.Malloc(32);
      CO_ASSERT_OK(mine);
      CO_ASSERT_OK(cg.StoreCap(*mine, mine->base(), cg.ddc().WithAddress(mine->base())));
      auto reloaded = cg.LoadCap(*mine, mine->base());
      CO_ASSERT_OK(reloaded);
      CO_ASSERT_TRUE(reloaded->tag());
      CO_ASSERT_OK(co_await cg.Write(wfd, *mine, kCapSize));
      co_await cg.Exit(0);
    });
    CO_ASSERT_OK(child);
    CO_ASSERT_OK(co_await g.Close(wfd));
    co_await ReadOverCapAndCheckStripped(g, rfd, *dst, /*byte_source=*/nullptr);
    CO_ASSERT_OK(co_await g.Close(rfd));
    auto waited = co_await g.Wait();
    CO_ASSERT_OK(waited);
    EXPECT_EQ(waited->status, 0);

    // Message queue: message boundaries are preserved, tags are not.
    auto mq = co_await g.MqOpen("/mq/tag-integrity", /*create=*/true);
    CO_ASSERT_OK(mq);
    CO_ASSERT_OK(co_await g.Write(*mq, *src, kCapSize));
    co_await ReadOverCapAndCheckStripped(g, *mq, *dst, &*src);
    CO_ASSERT_OK(co_await g.Close(*mq));

    // VFS file: write, seek back, read over the seeded capability.
    auto file = co_await g.Open("/tag-integrity", kOpenRead | kOpenWrite | kOpenCreate);
    CO_ASSERT_OK(file);
    CO_ASSERT_OK(co_await g.Write(*file, *src, kCapSize));
    CO_ASSERT_OK(co_await g.Seek(*file, 0, kSeekSet));
    co_await ReadOverCapAndCheckStripped(g, *file, *dst, &*src);
    CO_ASSERT_OK(co_await g.Close(*file));
    CO_ASSERT_OK(co_await g.Unlink("/tag-integrity"));
  };
}

TEST(TagIntegrity, IpcStripsTagsOnAllSystemsAndPagingModes) {
  struct Row {
    const char* name;
    std::unique_ptr<Kernel> (*make)(KernelConfig);
  };
  const Row rows[] = {
      {"ufork", [](KernelConfig c) { return MakeUforkKernel(c); }},
      {"mas", [](KernelConfig c) { return MakeMasKernel(c); }},
      {"vmclone", [](KernelConfig c) { return MakeVmCloneKernel(c); }},
  };
  for (const Row& row : rows) {
    for (const bool demand : {false, true}) {
      SCOPED_TRACE(std::string(row.name) + (demand ? "/demand" : "/eager"));
      KernelConfig config;
      config.layout.heap_size = 1 * kMiB;
      config.demand_paging = demand;
      auto kernel = row.make(std::move(config));
      auto pid = kernel->Spawn(MakeGuestEntry(MakeTagIntegrityGuest()), "tag-integrity");
      ASSERT_TRUE(pid.ok());
      kernel->Run();
    }
  }
}

}  // namespace
}  // namespace ufork
