// Tests for the 4-level radix page table: map/unmap/protect, range walks across radix node
// boundaries, and node accounting.
#include "src/mem/page_table.h"

#include <gtest/gtest.h>

#include <optional>
#include <tuple>
#include <vector>

#include "src/base/rng.h"
#include "src/cheri/capability.h"

namespace ufork {
namespace {

TEST(PageTable, MapLookupUnmap) {
  PageTable pt;
  pt.Map(0x1000, 7, kPteRw);
  const auto pte = pt.Lookup(0x1abc);  // any address within the page
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(pte->frame, 7u);
  EXPECT_EQ(pte->flags, static_cast<uint32_t>(kPteRw));
  EXPECT_EQ(pt.mapped_pages(), 1u);
  EXPECT_EQ(pt.Unmap(0x1000), 7u);
  EXPECT_FALSE(pt.Lookup(0x1000).has_value());
  EXPECT_EQ(pt.mapped_pages(), 0u);
}

TEST(PageTable, DistinctPagesAreIndependent) {
  PageTable pt;
  pt.Map(0x1000, 1, kPteRead);
  pt.Map(0x2000, 2, kPteRw);
  EXPECT_EQ(pt.Lookup(0x1000)->frame, 1u);
  EXPECT_EQ(pt.Lookup(0x2000)->frame, 2u);
  EXPECT_FALSE(pt.Lookup(0x3000).has_value());
}

TEST(PageTable, SetFlagsAndRemap) {
  PageTable pt;
  pt.Map(0x5000, 3, kPteRead | kPteCow);
  pt.SetFlags(0x5000, kPteRw);
  EXPECT_EQ(pt.Lookup(0x5000)->flags, static_cast<uint32_t>(kPteRw));
  pt.Remap(0x5000, 9, kPteRead | kPteLoadCapFault);
  EXPECT_EQ(pt.Lookup(0x5000)->frame, 9u);
  EXPECT_EQ(pt.Lookup(0x5000)->flags, static_cast<uint32_t>(kPteRead | kPteLoadCapFault));
}

TEST(PageTable, HighAddressesWork) {
  PageTable pt;
  const uint64_t va = kVaTop - kPageSize;
  pt.Map(va, 11, kPteRead);
  EXPECT_EQ(pt.Lookup(va)->frame, 11u);
}

TEST(PageTable, ForEachMappedVisitsInOrderAcrossLeafBoundaries) {
  PageTable pt;
  // Pages straddling a leaf table boundary (512 pages per leaf = 2 MiB span).
  const uint64_t two_mib = 512 * kPageSize;
  std::vector<uint64_t> vas = {0x1000, two_mib - kPageSize, two_mib, two_mib + kPageSize,
                               8 * two_mib + 5 * kPageSize};
  FrameId f = 1;
  for (uint64_t va : vas) {
    pt.Map(va, f++, kPteRead);
  }
  std::vector<uint64_t> visited;
  pt.ForEachMapped(0, kVaTop, [&](uint64_t va, Pte&) { visited.push_back(va); });
  EXPECT_EQ(visited, vas);
}

TEST(PageTable, ForEachMappedHonoursRange) {
  PageTable pt;
  for (uint64_t i = 0; i < 20; ++i) {
    pt.Map(0x10000 + i * kPageSize, i + 1, kPteRead);
  }
  uint64_t count = 0;
  pt.ForEachMapped(0x10000 + 5 * kPageSize, 0x10000 + 11 * kPageSize,
                   [&](uint64_t, const Pte&) { ++count; });
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(pt.CountMapped(0, kVaTop), 20u);
}

TEST(PageTable, ForEachMappedCanMutateFlags) {
  PageTable pt;
  pt.Map(0x4000, 1, kPteRw);
  pt.Map(0x8000, 2, kPteRw);
  pt.ForEachMapped(0, kVaTop, [](uint64_t, Pte& pte) { pte.flags = kPteRead | kPteCow; });
  EXPECT_EQ(pt.Lookup(0x4000)->flags, static_cast<uint32_t>(kPteRead | kPteCow));
  EXPECT_EQ(pt.Lookup(0x8000)->flags, static_cast<uint32_t>(kPteRead | kPteCow));
}

TEST(PageTable, NodeCountGrowsWithSpread) {
  PageTable pt;
  const uint64_t n0 = pt.node_count();
  pt.Map(0x1000, 1, kPteRead);
  const uint64_t n1 = pt.node_count();
  EXPECT_GT(n1, n0);
  pt.Map(0x2000, 2, kPteRead);  // same leaf: no new nodes
  EXPECT_EQ(pt.node_count(), n1);
  pt.Map(1ULL << 40, 3, kPteRead);  // far away: new subtree
  EXPECT_GT(pt.node_count(), n1);
}

// --- leaf-run sweeps against per-page references ----------------------------------------------

constexpr uint64_t kLeafPages = 512;  // one leaf table spans 2 MiB
constexpr uint64_t kImagePages = 1700;

// An image starting 100 pages into a leaf and touching four leaves: frames, read-only pages,
// reservations and holes, plus a run [900, 1500) that leaves the third leaf unallocated.
void FillImage(PageTable& pt, uint64_t lo) {
  for (uint64_t i = 0; i < kImagePages; ++i) {
    const uint64_t va = lo + i * kPageSize;
    if (i % 7 == 3 || (i >= 900 && i < 1500)) {
      continue;
    }
    if (i % 11 == 5) {
      pt.Map(va, kInvalidFrame, kPteNotPresent | kPteZeroFill);
    } else {
      pt.Map(va, i + 1, i % 3 == 0 ? kPteRead : kPteRw);
    }
  }
}

// A fork-like clone step: reservations copy verbatim, writable pages are write-protected on
// both sides, and the sweep stops at the in-use page `stop_at` pages into the range.
std::optional<Pte> CloneStep(uint64_t src_lo, uint64_t stop_at, uint64_t va, Pte& src) {
  if (va == src_lo + stop_at * kPageSize) {
    return std::nullopt;
  }
  if (!PtePopulated(src)) {
    return src;
  }
  if ((src.flags & kPteWrite) != 0) {
    src.flags = (src.flags & ~kPteWrite) | kPteCow;
  }
  return Pte{src.frame, src.flags | kPteLoadCapFault};
}

// Per-page reference for CloneRange: one Lookup and one Map per page.
bool ReferenceClone(PageTable& src, PageTable& dst, uint64_t src_lo, uint64_t dst_lo,
                    uint64_t stop_at) {
  for (uint64_t off = 0; off < kImagePages * kPageSize; off += kPageSize) {
    Pte* pte = src.LookupMutable(src_lo + off);
    if (pte == nullptr) {
      continue;
    }
    const std::optional<Pte> out = CloneStep(src_lo, stop_at, src_lo + off, *pte);
    if (!out.has_value()) {
      return false;
    }
    dst.Map(dst_lo + off, out->frame, out->flags);
  }
  return true;
}

std::vector<std::pair<uint64_t, Pte>> Dump(const PageTable& pt) {
  std::vector<std::pair<uint64_t, Pte>> pages;
  pt.ForEachMapped(0, kVaTop, [&](uint64_t va, const Pte& pte) { pages.emplace_back(va, pte); });
  return pages;
}

void ExpectSameTables(const PageTable& a, const PageTable& b) {
  EXPECT_EQ(Dump(a), Dump(b));
  EXPECT_EQ(a.mapped_pages(), b.mapped_pages());
  EXPECT_EQ(a.not_present_pages(), b.not_present_pages());
  EXPECT_EQ(a.node_count(), b.node_count());
}

// Clones then unmaps the image with the sweeps and with the per-page reference, and requires
// identical tables after each step: in one table (the μFork case) and across two (MAS), with
// the destination misaligned to the source's leaves so runs split on both sides.
TEST(PageTableSweeps, CloneAndUnmapMatchThePerPageReference) {
  const uint64_t src_lo = (8 * kLeafPages + 100) * kPageSize;
  const uint64_t dst_lo = (64 * kLeafPages + 300) * kPageSize;
  const uint64_t bytes = kImagePages * kPageSize;
  for (const bool one_table : {true, false}) {
    // Run to the end, or stop at a mapped page (700), a reservation (1600), or the first
    // in-use page whose destination leaf does not exist yet (725).
    for (const uint64_t stop_at :
         {kImagePages, uint64_t{700}, uint64_t{1600}, uint64_t{725}}) {
      SCOPED_TRACE(testing::Message() << "one_table=" << one_table << " stop_at=" << stop_at);
      PageTable ref_src;
      PageTable ref_other;
      PageTable src;
      PageTable other;
      FillImage(ref_src, src_lo);
      FillImage(src, src_lo);
      PageTable& ref_dst = one_table ? ref_src : ref_other;
      PageTable& dst = one_table ? src : other;

      const bool ref_done = ReferenceClone(ref_src, ref_dst, src_lo, dst_lo, stop_at);
      const bool done = src.CloneRange(dst, src_lo, dst_lo, bytes, [&](uint64_t va, Pte& pte) {
        return CloneStep(src_lo, stop_at, va, pte);
      });
      EXPECT_EQ(done, ref_done);
      EXPECT_EQ(done, stop_at == kImagePages);
      ExpectSameTables(src, ref_src);
      ExpectSameTables(other, ref_other);

      // Tear the clone down, and the source's middle, page by page and by range.
      for (const auto& [lo, table, ref_table] :
           {std::tuple{dst_lo, &dst, &ref_dst}, std::tuple{src_lo + 400 * kPageSize, &src,
                                                           &ref_src}}) {
        std::vector<std::pair<uint64_t, FrameId>> ref_freed;
        for (uint64_t va = lo; va < lo + bytes / 2; va += kPageSize) {
          if (ref_table->Lookup(va).has_value()) {
            ref_freed.emplace_back(va, ref_table->Unmap(va));
          }
        }
        std::vector<std::pair<uint64_t, FrameId>> freed;
        table->UnmapRange(lo, lo + bytes / 2,
                          [&](uint64_t va, FrameId frame) { freed.emplace_back(va, frame); });
        EXPECT_EQ(freed, ref_freed);
        ExpectSameTables(src, ref_src);
        ExpectSameTables(other, ref_other);
      }
    }
  }
}

// Property: a randomized sequence of map/unmap operations matches a reference std::map model.
TEST(PageTableProperty, MatchesReferenceModel) {
  PageTable pt;
  std::map<uint64_t, Pte> model;
  Rng rng(99);
  for (int step = 0; step < 5000; ++step) {
    const uint64_t va = rng.NextBelow(1ULL << 30) & ~(kPageSize - 1);
    const bool mapped = model.count(va) != 0;
    if (!mapped && rng.NextBelow(100) < 60) {
      const FrameId frame = 1 + rng.NextBelow(1000);
      const uint32_t flags = static_cast<uint32_t>(1 + rng.NextBelow(31));
      pt.Map(va, frame, flags);
      model[va] = Pte{frame, flags};
    } else if (mapped) {
      EXPECT_EQ(pt.Unmap(va), model[va].frame);
      model.erase(va);
    }
  }
  EXPECT_EQ(pt.mapped_pages(), model.size());
  std::vector<uint64_t> visited;
  pt.ForEachMapped(0, kVaTop, [&](uint64_t va, const Pte& pte) {
    visited.push_back(va);
    ASSERT_TRUE(model.count(va));
    EXPECT_EQ(pte.frame, model[va].frame);
    EXPECT_EQ(pte.flags, model[va].flags);
  });
  EXPECT_EQ(visited.size(), model.size());
}

}  // namespace
}  // namespace ufork
