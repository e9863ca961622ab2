#include "src/apps/miniredis.h"

#include <algorithm>

namespace ufork {
namespace {

constexpr uint64_t kDumpMagic = 0x5552454449537631ULL;  // "UREDISv1"
constexpr uint64_t kIoChunk = 64 * kKiB;

// Fixed cost of a save: dump-file setup, RDB header/trailer machinery and the final
// fsync-equivalent on the ram-disk (anchors the flat portion of Fig. 3 at small DB sizes).
constexpr Cycles kSaveFixedCycles = 3'200'000;
// RDB encoding + CRC over the value stream, per byte.
constexpr Cycles kRdbEncodeCyclesPerByte = 1;

// Dump checksum: FNV-1a over the entry count, lengths and key bytes (values are length-checked).
class DumpChecksum {
 public:
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      Add(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void AddBytes(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      Add(static_cast<uint8_t>(b));
    }
  }
  uint64_t value() const { return h_; }

 private:
  void Add(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct EntryRef {
  std::string key;
  Capability value;
  uint64_t value_len = 0;
};

}  // namespace

Result<MiniRedis> MiniRedis::Create(Guest& guest, uint64_t buckets) {
  UF_ASSIGN_OR_RETURN(GuestHashMap map, GuestHashMap::Create(guest, buckets));
  UF_RETURN_IF_ERROR(guest.GotStore(kGotSlotRedisDb, map.table()));
  return MiniRedis(guest, std::move(map));
}

Result<MiniRedis> MiniRedis::Attach(Guest& guest) {
  UF_ASSIGN_OR_RETURN(const Capability table, guest.GotLoad(kGotSlotRedisDb));
  if (!table.tag()) {
    return Error{Code::kErrInval, "no database published in the GOT"};
  }
  return MiniRedis(guest, GuestHashMap::Attach(guest, table));
}

Result<void> MiniRedis::Set(const std::string& key, std::span<const std::byte> value) {
  return map_.Put(key, value);
}

Result<std::optional<std::vector<std::byte>>> MiniRedis::Get(const std::string& key) {
  return map_.Get(key);
}

Result<bool> MiniRedis::Del(const std::string& key) { return map_.Erase(key); }

Result<uint64_t> MiniRedis::DbSize() { return map_.Size(); }

SimTask<Result<uint64_t>> MiniRedis::Save(const std::string& path) {
  Guest& g = *guest_;
  // Walking the table loads the bucket/entry capabilities — in a forked child this is where
  // CoPA copies the pages that actually contain pointers, while the bulk value bytes stay
  // shared (the asymmetry Fig. 4/5 measures).
  std::vector<EntryRef> entries;
  {
    const Result<void> walked = map_.ForEach(
        [&entries](const std::string& key, const Capability& value_cap,
                   uint64_t value_len) -> Result<void> {
          entries.push_back(EntryRef{key, value_cap, value_len});
          return OkResult();
        });
    if (!walked.ok()) {
      co_return walked.error();
    }
  }

  g.Compute(kSaveFixedCycles);
  auto fd = co_await g.Open(path, kOpenWrite | kOpenCreate | kOpenTrunc);
  if (!fd.ok()) {
    co_return fd.error();
  }
  auto scratch = g.Malloc(kIoChunk);
  if (!scratch.ok()) {
    co_return scratch.error();
  }

  DumpChecksum checksum;
  checksum.AddU64(entries.size());
  uint64_t total_written = 0;
  auto emit = [&](uint64_t len) -> SimTask<Result<void>> {
    auto n = co_await g.Write(*fd, *scratch, len);
    if (!n.ok()) {
      co_return n.error();
    }
    total_written += len;
    co_return OkResult();
  };

  // Header.
  UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*scratch, 0, kDumpMagic));
  UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*scratch, 8, entries.size()));
  UF_CO_RETURN_IF_ERROR(co_await emit(16));

  for (const EntryRef& entry : entries) {
    // Record header + key.
    UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*scratch, 0, entry.key.size()));
    UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*scratch, 8, entry.value_len));
    UF_CO_RETURN_IF_ERROR(g.WriteBytes(
        *scratch, scratch->base() + 16,
        std::as_bytes(std::span(entry.key.data(), entry.key.size()))));
    checksum.AddU64(entry.key.size());
    checksum.AddU64(entry.value_len);
    checksum.AddBytes(std::as_bytes(std::span(entry.key.data(), entry.key.size())));
    g.Compute(static_cast<Cycles>(entry.key.size() / 4 + 8));
    UF_CO_RETURN_IF_ERROR(co_await emit(16 + entry.key.size()));
    // Value, chunked through the scratch buffer (plain data reads: shared under CoPA).
    uint64_t done = 0;
    while (done < entry.value_len) {
      const uint64_t chunk = std::min<uint64_t>(entry.value_len - done, kIoChunk);
      UF_CO_RETURN_IF_ERROR(g.CopyBytes(*scratch, scratch->base(), entry.value,
                                        entry.value.base() + done, chunk));
      g.Compute(kRdbEncodeCyclesPerByte * chunk);
      UF_CO_RETURN_IF_ERROR(co_await emit(chunk));
      done += chunk;
    }
  }
  // Trailer.
  UF_CO_RETURN_IF_ERROR(g.StoreAt<uint64_t>(*scratch, 0, checksum.value()));
  UF_CO_RETURN_IF_ERROR(co_await emit(8));

  UF_CO_RETURN_IF_ERROR(co_await g.Close(*fd));
  UF_CO_RETURN_IF_ERROR(g.Free(*scratch));
  co_return total_written;
}

SimTask<Result<Pid>> MiniRedis::BgSave(const std::string& path) {
  Guest& g = *guest_;
  const std::string tmp = path + ".tmp";
  // NOTE: the child closure is hoisted into a named GuestFn instead of being written inline in
  // the co_await expression — GCC 12 mis-destroys non-trivially-destructible temporaries that
  // span a suspension point (see tests/coroutine_lifetime_test.cc).
  GuestFn child_fn = [path, tmp](Guest& cg) -> SimTask<void> {
    auto db = MiniRedis::Attach(cg);
    UF_CHECK_MSG(db.ok(), "BGSAVE child could not attach to the snapshot");
    auto written = co_await db->Save(tmp);
    int code = 0;
    if (!written.ok()) {
      code = 1;
    } else {
      auto renamed = co_await cg.Rename(tmp, path);
      code = renamed.ok() ? 0 : 1;
    }
    co_await cg.Exit(code);
  };
  auto child = co_await g.Fork(std::move(child_fn));
  co_return child;
}

SimTask<Result<MiniRedis::DumpInfo>> MiniRedis::VerifyDump(const std::string& path) {
  Guest& g = *guest_;
  auto fd = co_await g.Open(path, kOpenRead);
  if (!fd.ok()) {
    co_return fd.error();
  }
  auto scratch = g.Malloc(kIoChunk);
  if (!scratch.ok()) {
    co_return scratch.error();
  }
  auto read_exact = [&](uint64_t len) -> SimTask<Result<void>> {
    uint64_t done = 0;
    while (done < len) {
      auto n = co_await g.kernel().files().Read(g.uproc(), *fd, *scratch,
                                                scratch->base() + done, len - done);
      if (!n.ok()) {
        co_return n.error();
      }
      if (*n == 0) {
        co_return Error{Code::kErrInval, "truncated dump"};
      }
      done += static_cast<uint64_t>(*n);
    }
    co_return OkResult();
  };

  DumpInfo info;
  DumpChecksum checksum;
  UF_CO_RETURN_IF_ERROR(co_await read_exact(16));
  UF_CO_ASSIGN_OR_RETURN(const uint64_t magic, g.LoadAt<uint64_t>(*scratch, 0));
  UF_CO_ASSIGN_OR_RETURN(const uint64_t count, g.LoadAt<uint64_t>(*scratch, 8));
  if (magic != kDumpMagic) {
    co_return Error{Code::kErrInval, "bad dump magic"};
  }
  checksum.AddU64(count);
  for (uint64_t i = 0; i < count; ++i) {
    UF_CO_RETURN_IF_ERROR(co_await read_exact(16));
    UF_CO_ASSIGN_OR_RETURN(const uint64_t key_len, g.LoadAt<uint64_t>(*scratch, 0));
    UF_CO_ASSIGN_OR_RETURN(const uint64_t val_len, g.LoadAt<uint64_t>(*scratch, 8));
    if (key_len > kIoChunk) {
      co_return Error{Code::kErrInval, "oversized key"};
    }
    UF_CO_RETURN_IF_ERROR(co_await read_exact(key_len));
    UF_CO_ASSIGN_OR_RETURN(const std::vector<std::byte> key_bytes,
                           g.FetchBytes(*scratch, key_len));
    checksum.AddU64(key_len);
    checksum.AddU64(val_len);
    checksum.AddBytes(key_bytes);
    uint64_t done = 0;
    while (done < val_len) {
      const uint64_t chunk = std::min<uint64_t>(val_len - done, kIoChunk);
      UF_CO_RETURN_IF_ERROR(co_await read_exact(chunk));
      done += chunk;
    }
    info.value_bytes += val_len;
    ++info.entries;
  }
  UF_CO_RETURN_IF_ERROR(co_await read_exact(8));
  UF_CO_ASSIGN_OR_RETURN(const uint64_t trailer, g.LoadAt<uint64_t>(*scratch, 0));
  if (trailer != checksum.value()) {
    co_return Error{Code::kErrInval, "dump checksum mismatch"};
  }
  UF_CO_RETURN_IF_ERROR(co_await g.Close(*fd));
  UF_CO_RETURN_IF_ERROR(g.Free(*scratch));
  co_return info;
}

}  // namespace ufork
