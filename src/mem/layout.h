// μprocess region layout (paper Figure 1).
//
// Every μprocess occupies one contiguous region of the single address space with the same
// internal layout, so that a capability found in a child page can be relocated by a pure
// offset translation: offset(parent VA) == offset(child VA).
//
//   +------------------------+  region base
//   | text (code, RX)        |
//   | rodata (RO)            |
//   | GOT (RW, proactively   |   copied + relocated during fork (§3.5)
//   |   copied at fork)      |
//   | data + bss (RW)        |
//   | heap (RW, static size) |   per-μprocess statically allocated heap (§4.2); the first
//   |                        |   pages hold the allocator's metadata, also proactively copied
//   | stack (RW)             |
//   | tls (RW)               |
//   +------------------------+  region base + TotalSize()
#ifndef UFORK_SRC_MEM_LAYOUT_H_
#define UFORK_SRC_MEM_LAYOUT_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/mem/frame.h"

namespace ufork {

struct LayoutConfig {
  uint64_t text_size = 256 * kKiB;
  uint64_t rodata_size = 64 * kKiB;
  uint64_t got_size = 16 * kKiB;
  uint64_t data_size = 64 * kKiB;
  uint64_t heap_size = 4 * kMiB;  // build-time-configurable static heap (§4.2)
  uint64_t stack_size = 256 * kKiB;
  uint64_t tls_size = 16 * kKiB;
  uint64_t mmap_size = 1 * kMiB;  // anonymous-mmap zone, mapped on demand
};

// Segment offsets within a μprocess region. All offsets/sizes are page aligned.
class UprocLayout {
 public:
  explicit UprocLayout(const LayoutConfig& config) {
    uint64_t cursor = 0;
    auto place = [&cursor](uint64_t size) {
      const uint64_t off = cursor;
      cursor += AlignUp(size, kPageSize);
      return off;
    };
    text_off_ = place(config.text_size);
    rodata_off_ = place(config.rodata_size);
    got_off_ = place(config.got_size);
    data_off_ = place(config.data_size);
    heap_off_ = place(config.heap_size);
    stack_off_ = place(config.stack_size);
    tls_off_ = place(config.tls_size);
    mmap_off_ = place(config.mmap_size);
    total_ = cursor;
    config_ = config;
  }

  uint64_t text_off() const { return text_off_; }
  uint64_t text_size() const { return AlignUp(config_.text_size, kPageSize); }
  uint64_t rodata_off() const { return rodata_off_; }
  uint64_t rodata_size() const { return AlignUp(config_.rodata_size, kPageSize); }
  uint64_t got_off() const { return got_off_; }
  uint64_t got_size() const { return AlignUp(config_.got_size, kPageSize); }
  uint64_t data_off() const { return data_off_; }
  uint64_t data_size() const { return AlignUp(config_.data_size, kPageSize); }
  uint64_t heap_off() const { return heap_off_; }
  uint64_t heap_size() const { return AlignUp(config_.heap_size, kPageSize); }
  uint64_t stack_off() const { return stack_off_; }
  uint64_t stack_size() const { return AlignUp(config_.stack_size, kPageSize); }
  uint64_t tls_off() const { return tls_off_; }
  uint64_t tls_size() const { return AlignUp(config_.tls_size, kPageSize); }
  uint64_t mmap_off() const { return mmap_off_; }
  uint64_t mmap_size() const { return AlignUp(config_.mmap_size, kPageSize); }

  uint64_t TotalSize() const { return total_; }
  uint64_t TotalPages() const { return total_ / kPageSize; }

  // Exclusive end offset of the segment containing `offset`. Fault-around windows never cross
  // this boundary: segment permissions (and hence resolved PTE flags) change there.
  uint64_t SegmentEndOf(uint64_t offset) const {
    const uint64_t ends[] = {rodata_off_, got_off_, data_off_, heap_off_,
                             stack_off_,  tls_off_, mmap_off_, total_};
    for (const uint64_t end : ends) {
      if (offset < end) {
        return end;
      }
    }
    return total_;
  }

  // Offsets of the pages that fork copies proactively (GOT + allocator metadata at the start
  // of the heap, §3.5 step 1).
  bool IsProactiveCopyPage(uint64_t offset) const {
    if (offset >= got_off_ && offset < got_off_ + got_size()) {
      return true;
    }
    // First heap page holds the guest allocator's root metadata.
    return offset >= heap_off_ && offset < heap_off_ + kPageSize;
  }

  // Exclusive end offset of the run containing `offset` over which fork treats every page
  // alike: one segment (so one set of segment flags) and one IsProactiveCopyPage answer.
  uint64_t ForkRunEndOf(uint64_t offset) const {
    const uint64_t end = SegmentEndOf(offset);
    const uint64_t metadata_end = heap_off_ + kPageSize;
    return offset < metadata_end && metadata_end < end ? metadata_end : end;
  }

  const LayoutConfig& config() const { return config_; }

 private:
  LayoutConfig config_;
  uint64_t text_off_ = 0;
  uint64_t rodata_off_ = 0;
  uint64_t got_off_ = 0;
  uint64_t data_off_ = 0;
  uint64_t heap_off_ = 0;
  uint64_t stack_off_ = 0;
  uint64_t tls_off_ = 0;
  uint64_t mmap_off_ = 0;
  uint64_t total_ = 0;
};

}  // namespace ufork

#endif  // UFORK_SRC_MEM_LAYOUT_H_
