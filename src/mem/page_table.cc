#include "src/mem/page_table.h"

#include <vector>

#include "src/base/units.h"

namespace ufork {

struct PageTable::Table {
  Table() = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  ~Table() {
    for (Table* child : children) {
      delete child;
    }
    delete ptes;
  }

  // Interior levels use children; the leaf level uses ptes. Allocated lazily, owned here.
  std::array<Table*, kFanout> children{};
  std::array<Pte, kFanout>* ptes = nullptr;
};

PageTable::PageTable() : root_(std::make_unique<Table>()), node_count_(1) {}
PageTable::~PageTable() = default;

Pte* PageTable::Walk(uint64_t va, bool create) {
  UF_DCHECK(va < kVaTop);
  Table* t = root_.get();
  for (int level = 0; level < kLevels - 1; ++level) {
    Table*& child = t->children[IndexAt(va, level)];
    if (child == nullptr) {
      if (!create) {
        return nullptr;
      }
      child = new Table();
      ++node_count_;
    }
    t = child;
  }
  if (t->ptes == nullptr) {
    if (!create) {
      return nullptr;
    }
    t->ptes = new std::array<Pte, kFanout>();
    ++node_count_;
  }
  return &(*t->ptes)[IndexAt(va, kLevels - 1)];
}

const Pte* PageTable::WalkConst(uint64_t va) const {
  UF_DCHECK(va < kVaTop);
  const Table* t = root_.get();
  for (int level = 0; level < kLevels - 1; ++level) {
    const Table* child = t->children[IndexAt(va, level)];
    if (child == nullptr) {
      return nullptr;
    }
    t = child;
  }
  const auto* ptes = t->ptes;
  if (ptes == nullptr) {
    return nullptr;
  }
  return &(*ptes)[IndexAt(va, kLevels - 1)];
}

void PageTable::Map(uint64_t va, FrameId frame, uint32_t flags) {
  Pte* pte = Walk(va, /*create=*/true);
  UF_CHECK_MSG(!PteInUse(*pte), "mapping an already mapped page");
  UF_CHECK_MSG(frame != kInvalidFrame || (flags & kPteNotPresent) != 0,
               "frame-less mapping without kPteNotPresent");
  pte->frame = frame;
  pte->flags = flags;
  ++mapped_pages_;
  if (frame == kInvalidFrame) {
    ++not_present_pages_;
  }
}

FrameId PageTable::Unmap(uint64_t va) {
  Pte* pte = Walk(va, /*create=*/false);
  UF_CHECK_MSG(pte != nullptr && PteInUse(*pte), "unmapping an unmapped page");
  const FrameId frame = pte->frame;
  pte->frame = kInvalidFrame;
  pte->flags = 0;
  mapped_pages_ -= 1;
  if (frame == kInvalidFrame) {
    not_present_pages_ -= 1;
  }
  return frame;
}

void PageTable::Remap(uint64_t va, FrameId frame, uint32_t flags) {
  Pte* pte = Walk(va, /*create=*/false);
  UF_CHECK_MSG(pte != nullptr && PteInUse(*pte), "remapping an unmapped page");
  UF_CHECK_MSG(frame != kInvalidFrame || (flags & kPteNotPresent) != 0,
               "frame-less remap without kPteNotPresent");
  const bool was_reserved = pte->frame == kInvalidFrame;
  const bool now_reserved = frame == kInvalidFrame;
  pte->frame = frame;
  pte->flags = flags;
  if (was_reserved && !now_reserved) {
    not_present_pages_ -= 1;
  } else if (!was_reserved && now_reserved) {
    ++not_present_pages_;
  }
}

void PageTable::SetFlags(uint64_t va, uint32_t flags) {
  Pte* pte = Walk(va, /*create=*/false);
  UF_CHECK_MSG(pte != nullptr && PteInUse(*pte), "protecting an unmapped page");
  UF_CHECK_MSG(pte->frame != kInvalidFrame || (flags & kPteNotPresent) != 0,
               "flags change would strand a frame-less reservation");
  pte->flags = flags;
}

void PageTable::RemapRange(uint64_t va, std::span<const FrameId> frames, uint32_t flags,
                           uint32_t extra_flags_after_first) {
  for (size_t i = 0; i < frames.size(); ++i) {
    Remap(va + i * kPageSize, frames[i], i == 0 ? flags : flags | extra_flags_after_first);
  }
}

void PageTable::SetFlagsRange(uint64_t va, uint64_t pages, uint32_t flags,
                              uint32_t extra_flags_after_first) {
  for (uint64_t i = 0; i < pages; ++i) {
    SetFlags(va + i * kPageSize, i == 0 ? flags : flags | extra_flags_after_first);
  }
}

std::optional<Pte> PageTable::Lookup(uint64_t va) const {
  const Pte* pte = WalkConst(va);
  if (pte == nullptr || !PteInUse(*pte)) {
    return std::nullopt;
  }
  return *pte;
}

Pte* PageTable::LookupMutable(uint64_t va) {
  Pte* pte = Walk(va, /*create=*/false);
  if (pte == nullptr || !PteInUse(*pte)) {
    return nullptr;
  }
  return pte;
}

void PageTable::ForEachMapped(uint64_t lo, uint64_t hi,
                              const std::function<void(uint64_t, Pte&)>& fn) {
  // Iterative page-by-page walk over the range, skipping unmapped subtrees level by level.
  uint64_t va = AlignDown(lo, kPageSize);
  while (va < hi) {
    Table* t = root_.get();
    uint64_t skip = kVaTop;  // bytes to skip if subtree missing
    bool missing = false;
    for (int level = 0; level < kLevels - 1; ++level) {
      const int shift = 12 + kBitsPerLevel * (kLevels - 1 - level);
      skip = 1ULL << shift;
      Table* child = t->children[IndexAt(va, level)];
      if (child == nullptr) {
        missing = true;
        break;
      }
      t = child;
    }
    if (missing) {
      va = AlignDown(va, skip) + skip;
      continue;
    }
    auto* ptes = t->ptes;
    if (ptes == nullptr) {
      va = AlignDown(va, kPageSize * kFanout) + kPageSize * kFanout;
      continue;
    }
    // Scan the leaf table from the current index to its end.
    uint64_t idx = IndexAt(va, kLevels - 1);
    for (; idx < kFanout && va < hi; ++idx, va += kPageSize) {
      Pte& pte = (*ptes)[idx];
      if (PteInUse(pte)) {
        fn(va, pte);
      }
    }
  }
}

void PageTable::ForEachMapped(uint64_t lo, uint64_t hi,
                              const std::function<void(uint64_t, const Pte&)>& fn) const {
  const_cast<PageTable*>(this)->ForEachMapped(
      lo, hi, [&fn](uint64_t va, Pte& pte) { fn(va, pte); });
}

uint64_t PageTable::CountMapped(uint64_t lo, uint64_t hi) const {
  uint64_t n = 0;
  ForEachMapped(lo, hi, [&n](uint64_t, const Pte&) { ++n; });
  return n;
}

std::optional<uint64_t> PageTable::FindUnmappedRun(uint64_t lo, uint64_t hi,
                                                  uint64_t pages) const {
  if (pages == 0) {
    return std::nullopt;
  }
  uint64_t run_start = AlignUp(lo, kPageSize);
  uint64_t run_len = 0;
  for (uint64_t va = run_start; va + kPageSize <= hi; va += kPageSize) {
    const Pte* pte = WalkConst(va);
    if (pte != nullptr && PteInUse(*pte)) {
      run_start = va + kPageSize;
      run_len = 0;
      continue;
    }
    if (++run_len == pages) {
      return run_start;
    }
  }
  return std::nullopt;
}

}  // namespace ufork
