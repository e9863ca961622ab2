#include "src/mem/page_table.h"

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

Pte* PageTable::FindLeaf(uint64_t va, bool create, uint64_t* next) {
  UF_DCHECK(va < kVaTop);
  Table* t = root_.get();
  for (int level = 0; level < kLevels - 1; ++level) {
    Table*& child = t->children[IndexAt(va, level)];
    if (child == nullptr) {
      if (!create) {
        const uint64_t span = 1ULL << (12 + kBitsPerLevel * (kLevels - 1 - level));
        *next = AlignDown(va, span) + span;
        return nullptr;
      }
      child = new Table();
      ++node_count_;
    }
    t = child;
  }
  *next = AlignDown(va, kLeafSpan) + kLeafSpan;
  if (t->ptes == nullptr) {
    if (!create) {
      return nullptr;
    }
    t->ptes = new std::array<Pte, kFanout>();
    ++node_count_;
  }
  return t->ptes->data();
}

Pte* PageTable::Walk(uint64_t va, bool create) {
  uint64_t next = 0;
  Pte* leaf = FindLeaf(va, create, &next);
  return leaf == nullptr ? nullptr : leaf + LeafIndex(va);
}

const Pte* PageTable::WalkConst(uint64_t va) const {
  return const_cast<PageTable*>(this)->Walk(va, /*create=*/false);
}

void PageTable::Map(uint64_t va, FrameId frame, uint32_t flags) {
  Install(*Walk(va, /*create=*/true), Pte{frame, flags});
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
