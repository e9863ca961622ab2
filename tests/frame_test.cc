// Tests for tagged physical frames: tag-clear-on-overwrite (the invariant the fork relocation
// scan relies on), capability store/load round trips, and frame copies.
#include "src/mem/frame.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <map>

#include "src/base/rng.h"
#include "src/mem/frame_allocator.h"

namespace ufork {
namespace {

Capability TestCap(uint64_t addr) {
  return Capability::Root(0x1000, 0x100000, kPermAllData).WithAddress(addr);
}

std::span<const std::byte> BytesOf(const uint64_t& v) {
  return std::as_bytes(std::span(&v, 1));
}

TEST(Frame, DataRoundTrip) {
  Frame f;
  const uint64_t v = 0x1122334455667788ULL;
  f.Write(40, BytesOf(v));
  uint64_t out = 0;
  f.Read(40, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, v);
}

TEST(Frame, CapStoreLoadRoundTrip) {
  Frame f;
  const Capability c = TestCap(0x2040);
  f.StoreCap(32, c);
  EXPECT_TRUE(f.TagAt(32));
  const Capability loaded = f.LoadCap(32);
  EXPECT_TRUE(loaded.IdenticalTo(c));
}

TEST(Frame, IntegerViewOfTaggedGranuleIsCursor) {
  Frame f;
  f.StoreCap(64, TestCap(0xabcd));
  uint64_t low = 0;
  f.Read(64, std::as_writable_bytes(std::span(&low, 1)));
  EXPECT_EQ(low, 0xabcdu);
}

TEST(Frame, DataWriteClearsOverlappingTag) {
  Frame f;
  f.StoreCap(16, TestCap(0x2000));
  // Overwrite one byte inside the granule: the tag must drop (pointer forgery prevention).
  const uint8_t b = 0xff;
  f.Write(20, std::as_bytes(std::span(&b, 1)));
  EXPECT_FALSE(f.TagAt(16));
  // The loaded value is now an integer, not a capability.
  EXPECT_FALSE(f.LoadCap(16).tag());
}

TEST(Frame, DataWriteSpanningGranulesClearsAllTouchedTags) {
  Frame f;
  f.StoreCap(0, TestCap(0x2000));
  f.StoreCap(16, TestCap(0x3000));
  f.StoreCap(32, TestCap(0x4000));
  std::array<std::byte, 20> blob{};
  f.Write(8, blob);  // touches granules 0 and 1, not 2
  EXPECT_FALSE(f.TagAt(0));
  EXPECT_FALSE(f.TagAt(16));
  EXPECT_TRUE(f.TagAt(32));
}

TEST(Frame, UntaggedCapStoreClearsTag) {
  Frame f;
  f.StoreCap(16, TestCap(0x2000));
  f.StoreCap(16, Capability::Integer(99));
  EXPECT_FALSE(f.TagAt(16));
  EXPECT_EQ(f.LoadCap(16).address(), 99u);
}

TEST(Frame, FillClearsTags) {
  Frame f;
  f.StoreCap(128, TestCap(0x2000));
  f.Fill(0, kPageSize, std::byte{0});
  EXPECT_FALSE(f.TagAt(128));
  EXPECT_EQ(f.CountTags(), 0u);
}

TEST(Frame, CopyFromCarriesDataAndTags) {
  Frame a;
  a.StoreCap(48, TestCap(0x9000));
  const uint64_t v = 42;
  a.Write(1024, BytesOf(v));
  Frame b;
  b.CopyFrom(a);
  EXPECT_TRUE(b.TagAt(48));
  EXPECT_TRUE(b.LoadCap(48).IdenticalTo(a.LoadCap(48)));
  uint64_t out = 0;
  b.Read(1024, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, 42u);
}

TEST(Frame, ForEachTaggedCapVisitsInAddressOrderAndRewrites) {
  Frame f;
  f.StoreCap(96, TestCap(0x9600));
  f.StoreCap(16, TestCap(0x1600));
  f.StoreCap(240, TestCap(0x2400));
  std::vector<uint64_t> offsets;
  f.ForEachTaggedCap([&](uint64_t off, Capability& cap) {
    offsets.push_back(off);
    cap = cap.WithAddress(cap.address() + 0x10);
  });
  EXPECT_EQ(offsets, (std::vector<uint64_t>{16, 96, 240}));
  // Rewrites are visible through both the capability view and the integer view.
  EXPECT_EQ(f.LoadCap(16).address(), 0x1610u);
  uint64_t raw = 0;
  f.Read(96, std::as_writable_bytes(std::span(&raw, 1)));
  EXPECT_EQ(raw, 0x9610u);
}

TEST(Frame, CountTagsMatchesStores) {
  Frame f;
  Rng rng(5);
  uint64_t expected = 0;
  std::array<bool, kGranulesPerPage> tagged{};
  for (int i = 0; i < 300; ++i) {
    const uint64_t g = rng.NextBelow(kGranulesPerPage);
    if (!tagged[g]) {
      tagged[g] = true;
      ++expected;
    }
    f.StoreCap(g * kCapSize, TestCap(0x2000 + g));
  }
  EXPECT_EQ(f.CountTags(), expected);
}

TEST(Frame, HasTagsDropsWhenLastTagClearedByWrite) {
  Frame f;
  f.StoreCap(160, TestCap(0x5000));
  EXPECT_TRUE(f.HasTags());
  const uint32_t v = 0xdeadbeef;
  f.Write(164, std::as_bytes(std::span(&v, 1)));  // clears the only tag
  EXPECT_FALSE(f.HasTags());
  EXPECT_EQ(f.CountTags(), 0u);
}

TEST(Frame, HasTagsDropsWhenLastTagClearedByUntaggedStore) {
  Frame f;
  f.StoreCap(2032, TestCap(0x5000));
  EXPECT_TRUE(f.HasTags());
  f.StoreCap(2032, Capability::Integer(0));
  EXPECT_FALSE(f.HasTags());
}

TEST(Frame, HasTagsDropsWhenLastTagClearedByFill) {
  Frame f;
  f.StoreCap(0, TestCap(0x5000));
  f.StoreCap(kPageSize - kCapSize, TestCap(0x6000));
  EXPECT_TRUE(f.HasTags());
  f.Fill(0, kPageSize, std::byte{0xaa});
  EXPECT_FALSE(f.HasTags());
}

TEST(Frame, LoadCapIntegerFallbackReadsRawBytes) {
  Frame f;
  const uint64_t v = 0x0123456789abcdefULL;
  f.Write(512, BytesOf(v));
  const Capability c = f.LoadCap(512);
  EXPECT_FALSE(c.tag());
  EXPECT_EQ(c.address(), v);
}

TEST(Frame, CopyFromFullyTaggedPage) {
  Frame a;
  for (uint64_t g = 0; g < kGranulesPerPage; ++g) {
    a.StoreCap(g * kCapSize, TestCap(0x2000 + g * kCapSize));
  }
  EXPECT_EQ(a.CountTags(), kGranulesPerPage);
  Frame b;
  b.CopyFrom(a);
  EXPECT_EQ(b.CountTags(), kGranulesPerPage);
  for (uint64_t g = 0; g < kGranulesPerPage; ++g) {
    EXPECT_TRUE(b.LoadCap(g * kCapSize).IdenticalTo(a.LoadCap(g * kCapSize)));
  }
}

TEST(Frame, CopyFromTagFreePageDropsDestinationTags) {
  Frame dst;
  dst.StoreCap(32, TestCap(0x2000));
  dst.StoreCap(4064, TestCap(0x3000));
  Frame src;
  const uint64_t v = 0x5151;
  src.Write(32, BytesOf(v));
  dst.CopyFrom(src);
  EXPECT_FALSE(dst.HasTags());
  EXPECT_EQ(dst.CountTags(), 0u);
  EXPECT_FALSE(dst.LoadCap(32).tag());
  EXPECT_EQ(dst.LoadCap(32).address(), v);
}

TEST(Frame, ForEachTaggedCapAcrossBitmapWordBoundaries) {
  // Granules 0, 63, 64, 127, 128, 191, 192, 255 sit on every 64-bit word edge of the bitmap.
  Frame f;
  const std::vector<uint64_t> granules = {255, 0, 128, 63, 192, 64, 191, 127};
  for (uint64_t g : granules) {
    f.StoreCap(g * kCapSize, TestCap(0x2000 + g));
  }
  std::vector<uint64_t> offsets;
  f.ForEachTaggedCap([&](uint64_t off, Capability& cap) {
    offsets.push_back(off);
    cap = cap.WithAddress(cap.address() + 1);
  });
  std::vector<uint64_t> expected;
  for (uint64_t g : {0, 63, 64, 127, 128, 191, 192, 255}) {
    expected.push_back(g * kCapSize);
  }
  EXPECT_EQ(offsets, expected);
  for (uint64_t g : granules) {
    EXPECT_EQ(f.LoadCap(g * kCapSize).address(), 0x2000 + g + 1);
  }
}

// Naive reference model of the frame's tagged-memory semantics: a byte array plus a granule ->
// capability map. The randomized differential test below drives both implementations with the
// same operation stream and demands identical observable state.
class RefFrame {
 public:
  RefFrame() { data_.fill(std::byte{0}); }

  void Write(uint64_t off, std::span<const std::byte> in) {
    std::memcpy(data_.data() + off, in.data(), in.size());
    ClearRange(off, in.size());
  }

  void Fill(uint64_t off, uint64_t size, std::byte v) {
    std::memset(data_.data() + off, static_cast<int>(v), size);
    ClearRange(off, size);
  }

  void StoreCap(uint64_t off, const Capability& cap) {
    const uint64_t cursor = cap.address();
    std::memcpy(data_.data() + off, &cursor, sizeof(cursor));
    std::memset(data_.data() + off + 8, 0, 8);
    if (cap.tag()) {
      caps_[off / kCapSize] = cap;
    } else {
      caps_.erase(off / kCapSize);
    }
  }

  bool TagAt(uint64_t off) const { return caps_.count(off / kCapSize) > 0; }

  Capability LoadCap(uint64_t off) const {
    auto it = caps_.find(off / kCapSize);
    if (it != caps_.end()) {
      return it->second;
    }
    uint64_t cursor = 0;
    std::memcpy(&cursor, data_.data() + off, sizeof(cursor));
    return Capability::Integer(cursor);
  }

  uint64_t CountTags() const { return caps_.size(); }

  template <typename Fn>
  void ForEachTaggedCap(Fn&& fn) {
    for (auto& [granule, cap] : caps_) {  // std::map iterates in granule order
      const uint64_t off = granule * kCapSize;
      fn(off, cap);
      const uint64_t cursor = cap.address();
      std::memcpy(data_.data() + off, &cursor, sizeof(cursor));
    }
  }

  const std::byte* raw() const { return data_.data(); }

 private:
  void ClearRange(uint64_t off, uint64_t size) {
    if (size == 0) {
      return;
    }
    const uint64_t first = off / kCapSize;
    const uint64_t last = (off + size - 1) / kCapSize;
    for (uint64_t g = first; g <= last; ++g) {
      caps_.erase(g);
    }
  }

  std::array<std::byte, kPageSize> data_;
  std::map<uint64_t, Capability> caps_;
};

void ExpectSameState(const Frame& f, const RefFrame& ref) {
  ASSERT_EQ(f.CountTags(), ref.CountTags());
  ASSERT_EQ(std::memcmp(f.raw(), ref.raw(), kPageSize), 0);
  for (uint64_t g = 0; g < kGranulesPerPage; ++g) {
    const uint64_t off = g * kCapSize;
    ASSERT_EQ(f.TagAt(off), ref.TagAt(off)) << "granule " << g;
    ASSERT_TRUE(f.LoadCap(off).IdenticalTo(ref.LoadCap(off))) << "granule " << g;
  }
}

TEST(Frame, RandomizedDifferentialAgainstMapReference) {
  Frame f;
  RefFrame ref;
  Rng rng(0xf00d);
  for (int iter = 0; iter < 3000; ++iter) {
    switch (rng.NextBelow(6)) {
      case 0: {  // tagged capability store
        const uint64_t off = rng.NextBelow(kGranulesPerPage) * kCapSize;
        const Capability c = TestCap(0x1000 + rng.NextBelow(0xff000));
        f.StoreCap(off, c);
        ref.StoreCap(off, c);
        break;
      }
      case 1: {  // untagged (integer) store
        const uint64_t off = rng.NextBelow(kGranulesPerPage) * kCapSize;
        const Capability c = Capability::Integer(rng.NextU64());
        f.StoreCap(off, c);
        ref.StoreCap(off, c);
        break;
      }
      case 2: {  // data write of 1..64 random bytes
        const uint64_t len = 1 + rng.NextBelow(64);
        const uint64_t off = rng.NextBelow(kPageSize - len + 1);
        std::array<std::byte, 64> buf;
        for (uint64_t i = 0; i < len; ++i) {
          buf[i] = static_cast<std::byte>(rng.NextBelow(256));
        }
        f.Write(off, std::span(buf).first(len));
        ref.Write(off, std::span(buf).first(len));
        break;
      }
      case 3: {  // fill of 0..512 bytes
        const uint64_t len = rng.NextBelow(513);
        const uint64_t off = rng.NextBelow(kPageSize - len + 1);
        const auto v = static_cast<std::byte>(rng.NextBelow(256));
        f.Fill(off, len, v);
        ref.Fill(off, len, v);
        break;
      }
      case 4: {  // relocation-style in-place rewrite of every tagged granule
        const uint64_t delta = rng.NextBelow(256);
        auto rewrite = [&](uint64_t /*off*/, Capability& cap) {
          cap = cap.WithAddress(cap.address() + delta);
        };
        f.ForEachTaggedCap(rewrite);
        ref.ForEachTaggedCap(rewrite);
        break;
      }
      case 5: {  // CopyFrom round trip through a scratch frame
        Frame scratch;
        scratch.StoreCap(0, TestCap(0x7777));  // pre-dirty the destination
        scratch.CopyFrom(f);
        f.CopyFrom(scratch);
        break;
      }
    }
    if (iter % 200 == 0) {
      ExpectSameState(f, ref);
    }
  }
  ExpectSameState(f, ref);
  // The differential state also survives one final copy into a dirty destination.
  Frame copy;
  copy.StoreCap(128, TestCap(0x4000));
  copy.CopyFrom(f);
  ExpectSameState(copy, ref);
}

// --- FrameAllocator ----------------------------------------------------------------------------

TEST(FrameAllocator, AllocateReleaseReuse) {
  FrameAllocator alloc(4);
  auto a = alloc.Allocate();
  auto b = alloc.Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc.frames_in_use(), 2u);
  alloc.Release(*a);
  EXPECT_EQ(alloc.frames_in_use(), 1u);
  auto c = alloc.Allocate();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // slot reused
}

TEST(FrameAllocator, ReusedFrameIsZeroedAndUntagged) {
  FrameAllocator alloc(2);
  auto a = alloc.Allocate();
  ASSERT_TRUE(a.ok());
  alloc.WritableFrame(*a).StoreCap(0, TestCap(0x2000));
  const uint64_t v = 7;
  alloc.WritableFrame(*a).Write(100, std::as_bytes(std::span(&v, 1)));
  alloc.Release(*a);
  auto b = alloc.Allocate();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(alloc.frame(*b).CountTags(), 0u);
  uint64_t out = 1;
  alloc.frame(*b).Read(100, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, 0u);
}

TEST(FrameAllocator, AllocateForCopyThenCopyFromMatchesSource) {
  FrameAllocator alloc(4);
  auto src = alloc.Allocate();
  ASSERT_TRUE(src.ok());
  alloc.WritableFrame(*src).StoreCap(48, TestCap(0x9000));
  const uint64_t v = 0x42;
  alloc.WritableFrame(*src).Write(1000, std::as_bytes(std::span(&v, 1)));
  // Dirty a frame with data and tags, release it, then reallocate via the copy path: the
  // recycled frame has unspecified contents, but CopyFrom must fully overwrite them.
  auto scratch = alloc.Allocate();
  ASSERT_TRUE(scratch.ok());
  alloc.WritableFrame(*scratch).StoreCap(0, TestCap(0x8000));
  alloc.WritableFrame(*scratch).Fill(0, kPageSize, std::byte{0xee});
  alloc.Release(*scratch);
  auto dst = alloc.AllocateForCopy();
  ASSERT_TRUE(dst.ok());
  EXPECT_EQ(*dst, *scratch);  // recycled slot
  alloc.WritableFrame(*dst).CopyFrom(alloc.frame(*src));
  EXPECT_EQ(alloc.frame(*dst).CountTags(), 1u);
  EXPECT_TRUE(alloc.frame(*dst).LoadCap(48).IdenticalTo(alloc.frame(*src).LoadCap(48)));
  EXPECT_EQ(std::memcmp(alloc.frame(*dst).raw(), alloc.frame(*src).raw(), kPageSize), 0);
}

TEST(FrameAllocator, AllocateAfterForCopyStillZeroes) {
  FrameAllocator alloc(2);
  auto a = alloc.AllocateForCopy();
  ASSERT_TRUE(a.ok());
  alloc.WritableFrame(*a).StoreCap(0, TestCap(0x2000));
  alloc.Release(*a);
  auto b = alloc.Allocate();  // plain Allocate must still hand out a zeroed, tag-free frame
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a);
  EXPECT_EQ(alloc.frame(*b).CountTags(), 0u);
  uint64_t out = 1;
  alloc.frame(*b).Read(0, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, 0u);
}

TEST(FrameAllocator, RefcountKeepsFrameAlive) {
  FrameAllocator alloc(2);
  auto a = alloc.Allocate();
  ASSERT_TRUE(a.ok());
  alloc.AddRef(*a);
  EXPECT_EQ(alloc.RefCount(*a), 2u);
  alloc.Release(*a);
  EXPECT_TRUE(alloc.IsLive(*a));
  alloc.Release(*a);
  EXPECT_FALSE(alloc.IsLive(*a));
}

TEST(FrameAllocator, ReleaseOfADeadFrameAborts) {
  FrameAllocator alloc(2);
  auto a = alloc.Allocate();
  ASSERT_TRUE(a.ok());
  alloc.AddRef(*a);
  alloc.Release(*a);  // the inline shared-reference path
  alloc.Release(*a);  // the last reference
  EXPECT_FALSE(alloc.IsLive(*a));
  EXPECT_DEATH(alloc.Release(*a), "Release on a dead frame");
  EXPECT_DEATH(alloc.Release(*a + 1), "id < slots_.size");
}

TEST(FrameAllocator, ExhaustionReturnsNoMem) {
  FrameAllocator alloc(2);
  ASSERT_TRUE(alloc.Allocate().ok());
  ASSERT_TRUE(alloc.Allocate().ok());
  EXPECT_EQ(alloc.Allocate().code(), Code::kErrNoMem);
}

TEST(FrameAllocator, PeakTracksHighWaterMark) {
  FrameAllocator alloc(8);
  std::vector<FrameId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(alloc.Allocate().value());
  }
  for (FrameId id : ids) {
    alloc.Release(id);
  }
  EXPECT_EQ(alloc.peak_frames(), 5u);
  EXPECT_EQ(alloc.frames_in_use(), 0u);
}

TEST(FrameAllocator, NeverWrittenFrameHasNoStorage) {
  FrameAllocator alloc(8);
  const FrameId zero = alloc.Allocate().value();
  const FrameId copy = alloc.AllocateForCopy().value();
  EXPECT_EQ(alloc.storage_frames(), 0u);
  EXPECT_FALSE(alloc.HasStorage(zero));
  EXPECT_FALSE(alloc.HasStorage(copy));
  // The read view is all zero and tag-free, and reading it allocates nothing.
  for (const FrameId id : {zero, copy}) {
    const Frame& view = alloc.frame(id);
    EXPECT_FALSE(view.HasTags());
    EXPECT_EQ(std::memcmp(view.raw(), Frame().raw(), kPageSize), 0);
  }
  EXPECT_EQ(alloc.storage_frames(), 0u);

  const FrameId written = alloc.Allocate().value();
  alloc.WritableFrame(written).StoreCap(32, TestCap(0x3000));
  EXPECT_TRUE(alloc.HasStorage(written));
  EXPECT_EQ(alloc.storage_frames(), 1u);

  // A storage-less source leaves a storage-less destination storage-less...
  alloc.CopyFrame(copy, zero);
  EXPECT_FALSE(alloc.HasStorage(copy));
  EXPECT_EQ(alloc.storage_frames(), 1u);
  // ...and zeroes one that has storage, keeping it.
  alloc.CopyFrame(written, zero);
  EXPECT_TRUE(alloc.HasStorage(written));
  EXPECT_FALSE(alloc.frame(written).HasTags());
  EXPECT_EQ(std::memcmp(alloc.frame(written).raw(), Frame().raw(), kPageSize), 0);
  // A source with storage gives the destination storage.
  alloc.WritableFrame(written).StoreCap(64, TestCap(0x5000));
  alloc.CopyFrame(copy, written);
  EXPECT_TRUE(alloc.HasStorage(copy));
  EXPECT_TRUE(alloc.frame(copy).LoadCap(64).IdenticalTo(TestCap(0x5000)));
  EXPECT_EQ(alloc.storage_frames(), 2u);

  // A recycled slot keeps its storage; Allocate hands it out zeroed.
  alloc.Release(copy);
  const FrameId recycled = alloc.Allocate().value();
  EXPECT_EQ(recycled, copy);
  EXPECT_TRUE(alloc.HasStorage(recycled));
  EXPECT_FALSE(alloc.frame(recycled).HasTags());
  EXPECT_EQ(std::memcmp(alloc.frame(recycled).raw(), Frame().raw(), kPageSize), 0);
  EXPECT_EQ(alloc.storage_frames(), 2u);
}

// Random Allocate / AllocateForCopy / CopyFrame / write / fill / capability store / AddRef /
// Release sequences against a RefFrame per live frame. After every step each live frame must
// read exactly as its reference, and a frame with tags must have storage.
TEST(FrameAllocator, StorageDifferentialAgainstReference) {
  for (const uint64_t seed : {1u, 2u, 3u, 0x5eedu}) {
    SCOPED_TRACE(seed);
    constexpr uint64_t kMaxFrames = 12;
    FrameAllocator alloc(kMaxFrames);
    std::map<FrameId, RefFrame> ref;
    std::map<FrameId, uint32_t> refs;
    Rng rng(seed);
    auto pick = [&]() {
      auto it = ref.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(ref.size())));
      return it->first;
    };
    for (int step = 0; step < 2000; ++step) {
      const uint64_t op = ref.empty() ? 0 : rng.NextBelow(9);
      if (op <= 1 && ref.size() < kMaxFrames) {
        if (op == 0) {
          const uint64_t before = alloc.storage_frames();
          const FrameId id = alloc.Allocate().value();
          EXPECT_EQ(alloc.storage_frames(), before);  // recycled or not, no new storage
          ref[id] = RefFrame();
          refs[id] = 1;
        } else {
          const FrameId src = pick();
          const FrameId id = alloc.AllocateForCopy().value();
          alloc.CopyFrame(id, src);
          ref[id] = ref[src];
          refs[id] = 1;
        }
      } else if (op == 2) {  // copy between two live frames
        const FrameId dst = pick();
        const FrameId src = pick();
        if (dst != src) {
          const bool had = alloc.HasStorage(dst);
          alloc.CopyFrame(dst, src);
          EXPECT_EQ(alloc.HasStorage(dst), had || alloc.HasStorage(src));
          ref[dst] = ref[src];
        }
      } else if (op == 3) {  // data write of 1..64 random bytes
        const FrameId id = pick();
        const uint64_t len = 1 + rng.NextBelow(64);
        const uint64_t off = rng.NextBelow(kPageSize - len + 1);
        std::array<std::byte, 64> buf;
        for (uint64_t i = 0; i < len; ++i) {
          buf[i] = static_cast<std::byte>(rng.NextBelow(256));
        }
        alloc.WritableFrame(id).Write(off, std::span(buf).first(len));
        ref[id].Write(off, std::span(buf).first(len));
      } else if (op == 4) {  // fill of 0..512 bytes
        const FrameId id = pick();
        const uint64_t len = rng.NextBelow(513);
        const uint64_t off = rng.NextBelow(kPageSize - len + 1);
        const auto v = static_cast<std::byte>(rng.NextBelow(256));
        alloc.WritableFrame(id).Fill(off, len, v);
        ref[id].Fill(off, len, v);
      } else if (op == 5 || op == 6) {  // tagged or untagged capability store
        const FrameId id = pick();
        const uint64_t off = rng.NextBelow(kGranulesPerPage) * kCapSize;
        const Capability c = op == 5 ? TestCap(0x1000 + rng.NextBelow(0xff000))
                                     : Capability::Integer(rng.NextU64());
        alloc.WritableFrame(id).StoreCap(off, c);
        ref[id].StoreCap(off, c);
      } else if (op == 7) {
        const FrameId id = pick();
        alloc.AddRef(id);
        ++refs[id];
      } else if (op == 8) {  // release; the slot's storage stays for the next grant
        const FrameId id = pick();
        alloc.Release(id);
        if (--refs[id] == 0) {
          ref.erase(id);
          refs.erase(id);
        }
      }
      for (const auto& [id, expected] : ref) {
        const Frame& view = alloc.frame(id);
        if (view.HasTags()) {
          ASSERT_TRUE(alloc.HasStorage(id)) << "tagged frame " << id << " without storage";
        }
        ExpectSameState(view, expected);
      }
      ASSERT_LE(alloc.storage_frames(), kMaxFrames);
    }
  }
}

}  // namespace
}  // namespace ufork
