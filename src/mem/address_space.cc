#include "src/mem/address_space.h"

#include <algorithm>

#include "src/base/check.h"
#include "src/mem/frame.h"

namespace ufork {

AddressSpace::AddressSpace(uint64_t lo, uint64_t hi) : lo_(lo), hi_(hi) {
  UF_CHECK(IsAligned(lo, kPageSize) && IsAligned(hi, kPageSize) && lo < hi);
  free_.emplace(lo, hi - lo);
}

void AddressSpace::EnableAslr(uint64_t seed) {
  aslr_rng_.emplace(seed);
}

Result<uint64_t> AddressSpace::AllocateRegion(uint64_t size, uint64_t align) {
  UF_CHECK(IsPowerOfTwo(align) && align >= kPageSize);
  size = AlignUp(size, kPageSize);
  if (size == 0) {
    return Error{Code::kErrInval, "zero-sized region"};
  }
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kRegionGrant)) {
    // POSIX reports address-space exhaustion on fork/spawn/mmap as ENOMEM.
    return Error{Code::kErrNoMem, "address space exhausted (injected)"};
  }
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const uint64_t block_base = it->first;
    const uint64_t block_size = it->second;
    const uint64_t aligned = AlignUp(block_base, align);
    if (aligned + size > block_base + block_size || aligned + size < aligned) {
      continue;
    }
    uint64_t base = aligned;
    if (aslr_rng_.has_value()) {
      // Random slide within the block, in units of the alignment.
      const uint64_t max_slide = (block_base + block_size - size - aligned) / align;
      base = aligned + aslr_rng_->NextBelow(max_slide + 1) * align;
    }
    // Split the free block around [base, base+size).
    free_.erase(it);
    if (base > block_base) {
      free_.emplace(block_base, base - block_base);
    }
    if (base + size < block_base + block_size) {
      free_.emplace(base + size, block_base + block_size - (base + size));
    }
    allocated_.emplace(base, size);
    return base;
  }
  return Error{Code::kErrNoSpc, "address space exhausted (fragmentation)"};
}

Result<uint64_t> AddressSpace::AllocateRegionAt(uint64_t base, uint64_t size) {
  size = AlignUp(size, kPageSize);
  if (!IsAligned(base, kPageSize) || size == 0) {
    return Error{Code::kErrInval, "misaligned placement"};
  }
  if (injector_ != nullptr && injector_->ShouldFail(FaultSite::kCompactTarget)) {
    return Error{Code::kErrNoSpc, "target range not free (injected)"};
  }
  // Find the free block containing [base, base+size).
  auto it = free_.upper_bound(base);
  if (it == free_.begin()) {
    return Error{Code::kErrNoSpc, "target range not free"};
  }
  --it;
  const uint64_t block_base = it->first;
  const uint64_t block_size = it->second;
  if (base < block_base || base + size > block_base + block_size) {
    return Error{Code::kErrNoSpc, "target range not free"};
  }
  free_.erase(it);
  if (base > block_base) {
    free_.emplace(block_base, base - block_base);
  }
  if (base + size < block_base + block_size) {
    free_.emplace(base + size, block_base + block_size - (base + size));
  }
  allocated_.emplace(base, size);
  return base;
}

std::optional<uint64_t> AddressSpace::FirstFitBase(uint64_t size, uint64_t align) const {
  size = AlignUp(size, kPageSize);
  for (const auto& [block_base, block_size] : free_) {
    const uint64_t aligned = AlignUp(block_base, align);
    if (aligned + size <= block_base + block_size && aligned + size >= aligned) {
      return aligned;
    }
  }
  return std::nullopt;
}

void AddressSpace::FreeRegion(uint64_t base) {
  auto it = allocated_.find(base);
  UF_CHECK_MSG(it != allocated_.end(), "freeing an unallocated region");
  const uint64_t size = it->second;
  allocated_.erase(it);
  reserve_only_.erase(base);
  InsertFree(base, size);
}

void AddressSpace::QuarantineRegion(uint64_t base) {
  auto it = allocated_.find(base);
  UF_CHECK_MSG(it != allocated_.end(), "quarantining an unallocated region");
  const uint64_t size = it->second;
  allocated_.erase(it);
  reserve_only_.erase(base);
  quarantined_.emplace(base, QuarantinedRange{base, size, ++quarantine_gen_});
}

std::vector<QuarantinedRange> AddressSpace::QuarantinedRanges() const {
  std::vector<QuarantinedRange> ranges;
  ranges.reserve(quarantined_.size());
  for (const auto& [base, range] : quarantined_) {
    ranges.push_back(range);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const QuarantinedRange& a, const QuarantinedRange& b) {
              return a.generation < b.generation;
            });
  return ranges;
}

void AddressSpace::ReleaseQuarantinedUpTo(uint64_t generation) {
  for (auto it = quarantined_.begin(); it != quarantined_.end();) {
    if (it->second.generation <= generation) {
      InsertFree(it->second.base, it->second.size);
      it = quarantined_.erase(it);
    } else {
      ++it;
    }
  }
}

uint64_t AddressSpace::quarantine_generation() const {
  return quarantine_gen_;
}

void AddressSpace::MarkReserveOnly(uint64_t base) {
  UF_CHECK_MSG(allocated_.count(base) != 0, "reserve-only tag on an unallocated region");
  reserve_only_.insert(base);
}

bool AddressSpace::IsReserveOnly(uint64_t base) const {
  return reserve_only_.count(base) != 0;
}

void AddressSpace::InsertFree(uint64_t base, uint64_t size) {
  // Coalesce with the neighbouring free blocks.
  auto next = free_.lower_bound(base);
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == base) {
      base = prev->first;
      size += prev->second;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && base + size == next->first) {
    size += next->second;
    free_.erase(next);
  }
  free_.emplace(base, size);
}

std::optional<uint64_t> AddressSpace::RegionContaining(uint64_t addr) const {
  auto it = allocated_.upper_bound(addr);
  if (it == allocated_.begin()) {
    return std::nullopt;
  }
  --it;
  if (addr >= it->first && addr < it->first + it->second) {
    return it->first;
  }
  return std::nullopt;
}

std::optional<std::pair<uint64_t, uint64_t>> AddressSpace::RegionContainingWithSize(
    uint64_t addr) const {
  auto it = allocated_.upper_bound(addr);
  if (it == allocated_.begin()) {
    return std::nullopt;
  }
  --it;
  if (addr >= it->first && addr < it->first + it->second) {
    return std::make_pair(it->first, it->second);
  }
  return std::nullopt;
}

std::optional<uint64_t> AddressSpace::RegionSize(uint64_t base) const {
  auto it = allocated_.find(base);
  if (it == allocated_.end()) {
    return std::nullopt;
  }
  return it->second;
}

double AddressSpace::SlotFragmentation(uint64_t slot_bytes) const {
  if (allocated_.empty() || slot_bytes == 0) {
    return 0.0;
  }
  // Region grants are slot-aligned (kRegionAlign), so per-region slot spans never overlap
  // and the occupied counts sum exactly.
  uint64_t occupied = 0;
  uint64_t hwm_slot = 0;
  for (const auto& [base, size] : allocated_) {
    const uint64_t first = (base - lo_) / slot_bytes;
    const uint64_t last = (base + size - 1 - lo_) / slot_bytes;
    occupied += last - first + 1;
    hwm_slot = std::max(hwm_slot, last);
  }
  return 1.0 - static_cast<double>(occupied) / static_cast<double>(hwm_slot + 1);
}

AddressSpaceStats AddressSpace::Stats() const {
  AddressSpaceStats stats;
  stats.total_bytes = hi_ - lo_;
  stats.region_count = allocated_.size();
  for (const auto& [base, size] : free_) {
    stats.free_bytes += size;
    stats.largest_free_block = std::max(stats.largest_free_block, size);
  }
  for (const uint64_t base : reserve_only_) {
    auto it = allocated_.find(base);
    if (it != allocated_.end()) {
      stats.reserved_bytes += it->second;
    }
  }
  for (const auto& [base, range] : quarantined_) {
    stats.quarantined_bytes += range.size;
  }
  return stats;
}

}  // namespace ufork
