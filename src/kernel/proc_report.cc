#include "src/kernel/proc_report.h"

#include <iomanip>
#include <sstream>

#include "src/kernel/page_cache.h"

namespace ufork {
namespace {

const char* StateName(Uproc::State state) {
  switch (state) {
    case Uproc::State::kRunning:
      return "RUN";
    case Uproc::State::kZombie:
      return "ZOMB";
    case Uproc::State::kDead:
      return "DEAD";
  }
  return "?";
}

// The kernel lock the backend picked: Unikraft's big kernel lock, or none (the MAS baseline).
const char* LocksName(Kernel& kernel) { return kernel.kernel_lock() != nullptr ? "bkl" : "none"; }

struct PageStateCounts {
  uint64_t total = 0;
  uint64_t private_pages = 0;
  uint64_t cow_shared = 0;
  uint64_t copa_armed = 0;  // load-cap-fault attribute still set
  uint64_t map_shared = 0;
  uint64_t reserved = 0;  // demand reservations: mapped but frame-less
};

PageStateCounts CountPages(Kernel& kernel, const Uproc& uproc, uint64_t lo, uint64_t hi) {
  PageStateCounts counts;
  if (uproc.page_table == nullptr) {
    return counts;
  }
  const FrameAllocator& frames = kernel.machine().frames();
  uproc.page_table->ForEachMapped(lo, hi, [&](uint64_t, const Pte& pte) {
    ++counts.total;
    if (!PtePopulated(pte)) {
      ++counts.reserved;
    } else if ((pte.flags & kPteShared) != 0) {
      ++counts.map_shared;
    } else if ((pte.flags & kPteCow) != 0 || frames.RefCount(pte.frame) > 1) {
      ++counts.cow_shared;
    } else {
      ++counts.private_pages;
    }
    if ((pte.flags & kPteLoadCapFault) != 0) {
      ++counts.copa_armed;
    }
  });
  return counts;
}

}  // namespace

std::string ProcessTableReport(Kernel& kernel) {
  std::ostringstream os;
  os << "  PID PPID STATE  REGION                    USS(MB)  PSS(MB)  FORKS  FORK-LAT(us)  "
        "NAME\n";
  for (const Pid pid : kernel.AllPids()) {
    Uproc* uproc = kernel.FindUproc(pid);
    UF_CHECK(uproc != nullptr);
    os << std::setw(5) << pid << std::setw(5) << uproc->parent_pid << " " << std::setw(5)
       << StateName(uproc->state) << "  ";
    std::ostringstream region;
    region << "[0x" << std::hex << uproc->base << ",0x" << uproc->base + uproc->size << ")";
    os << std::setw(24) << std::left << region.str() << std::right << "  " << std::setw(7)
       << std::fixed << std::setprecision(2) << kernel.UprocUssMb(*uproc) << "  "
       << std::setw(7)
       << static_cast<double>(kernel.UprocPssBytes(*uproc)) / static_cast<double>(kMiB)
       << "  " << std::setw(5) << uproc->forks_performed << "  " << std::setw(12)
       << std::setprecision(1) << ToMicroseconds(uproc->fork_stats.latency) << "  "
       << uproc->name << "\n";
  }
  return os.str();
}

std::string MemoryMapReport(Kernel& kernel, Pid pid) {
  Uproc* uproc = kernel.FindUproc(pid);
  if (uproc == nullptr || uproc->page_table == nullptr) {
    return "(no such process)\n";
  }
  const UprocLayout& layout = kernel.layout();
  struct Segment {
    const char* name;
    uint64_t off;
    uint64_t size;
    const char* perms;
  };
  const Segment segments[] = {
      {"text", layout.text_off(), layout.text_size(), "r-x"},
      {"rodata", layout.rodata_off(), layout.rodata_size(), "r--"},
      {"got", layout.got_off(), layout.got_size(), "rw-"},
      {"data", layout.data_off(), layout.data_size(), "rw-"},
      {"heap", layout.heap_off(), layout.heap_size(), "rw-"},
      {"stack", layout.stack_off(), layout.stack_size(), "rw-"},
      {"tls", layout.tls_off(), layout.tls_size(), "rw-"},
      {"mmap", layout.mmap_off(), layout.mmap_size(), "rw-"},
  };
  std::ostringstream os;
  os << "memory map of pid " << pid << " (" << uproc->name << "), region base 0x" << std::hex
     << uproc->base << std::dec << ":\n";
  os << "  SEGMENT  PERM      PAGES   PRIVATE  COW-SHARED  COPA-ARMED  MAP-SHARED  RESERVED\n";
  for (const Segment& segment : segments) {
    const PageStateCounts counts = CountPages(
        kernel, *uproc, uproc->base + segment.off, uproc->base + segment.off + segment.size);
    os << "  " << std::setw(7) << std::left << segment.name << std::right << "  "
       << segment.perms << "  " << std::setw(9) << counts.total << "  " << std::setw(8)
       << counts.private_pages << "  " << std::setw(10) << counts.cow_shared << "  "
       << std::setw(10) << counts.copa_armed << "  " << std::setw(10) << counts.map_shared
       << "  " << std::setw(8) << counts.reserved << "\n";
  }
  return os.str();
}

std::string KernelSummaryReport(Kernel& kernel) {
  const KernelStats& stats = kernel.stats();
  const Machine& machine = kernel.machine();
  std::ostringstream os;
  os << "kernel summary (" << kernel.backend().name() << ", "
     << ForkStrategyName(kernel.config().strategy) << ", isolation="
     << IsolationLevelName(kernel.config().isolation)
     << ", locks=" << LocksName(kernel) << "):\n"
     << "  forks=" << stats.forks << " exits=" << stats.exits
     << " syscalls=" << stats.syscalls << "\n"
     << "  fault copies=" << stats.pages_copied_on_fault
     << " (CoW faults=" << machine.cow_faults()
     << ", CoPA faults=" << machine.cap_load_faults() << ")\n"
     << "  faults taken=" << stats.faults_taken
     << " fault-around pages=" << stats.pages_resolved_by_faultaround
     << " reclaimed in place=" << stats.pages_reclaimed_in_place
     << " speculative wasted=" << stats.speculative_pages_wasted << "\n"
     << "  fault cycles=" << stats.fault_cycles << " ("
     << std::fixed << std::setprecision(1) << ToMicroseconds(stats.fault_cycles) << " us)\n"
     << "  contained crashes=" << stats.faults_contained
     << " (capability/translation faults delivered as SIGSEGV)\n"
     << "  caps relocated on fault=" << stats.caps_relocated_on_fault
     << " stripped=" << stats.caps_stripped
     << " tocttou copies=" << stats.tocttou_copies << "\n"
     << "  regions tombstoned=" << stats.regions_tombstoned
     << " frames in use=" << machine.frames().frames_in_use() << " (peak "
     << machine.frames().peak_frames() << ")\n"
     << "  memory: resident frames=" << kernel.ResidentFrames()
     << " reserved bytes=" << kernel.ReservedBytes()
     << " demand faults=" << machine.demand_faults()
     << " pages demand-filled=" << stats.pages_demand_filled << "\n"
     << "  page cache: resident=" << kernel.page_cache().resident_pages()
     << " hits=" << kernel.page_cache().hits() << " fills=" << kernel.page_cache().fills()
     << " evictions=" << kernel.page_cache().evictions() << "\n"
     << "  address space: " << kernel.address_space().Stats().region_count << " regions, "
     << std::fixed << std::setprecision(3)
     << kernel.address_space().Stats().ExternalFragmentation() << " external fragmentation\n";
  if (kernel.config().compact_budget_pages > 0 || stats.quarantined_bytes > 0 ||
      stats.caps_revoked > 0) {
    os << "  compaction: steps=" << stats.compact_steps
       << " regions moved=" << stats.compact_regions_moved
       << " parked at barrier=" << stats.compact_parked
       << " pause max=" << stats.pause_cycles_max << " cycles\n"
       << "  revocation: quarantined bytes=" << stats.quarantined_bytes
       << " (now " << kernel.address_space().Stats().quarantined_bytes
       << ") caps revoked=" << stats.caps_revoked << "\n";
  }
  const AdmissionController& admission = kernel.admission();
  if (admission.enabled()) {
    const OverloadConfig& overload = admission.config();
    os << "  admission: watermarks low=" << overload.low_watermark
       << " clear=" << overload.clear_watermark << " free=" << machine.frames().free_frames()
       << (admission.rejecting() ? " [REJECTING]" : " [ADMITTING]") << "\n"
       << "  admission trips=" << stats.admission_trips
       << " rejected=" << stats.admission_rejected << "\n";
  }
  if (machine.frames().tenant_caps_active()) {
    os << "  tenants:";
    machine.frames().ForEachTenant([&](TenantId tenant, uint64_t frames) {
      os << " " << tenant << "=" << frames;
    });
    os << " cap rejections=" << machine.frames().tenant_cap_rejections() << "\n";
  }
  return os.str();
}

std::string SyscallTableReport(Kernel& kernel) {
  const KernelStats& stats = kernel.stats();
  std::ostringstream os;
  os << "syscall table (" << kNumSyscalls << " entries, locks=" << LocksName(kernel) << "):\n";
  os << "  SYSCALL        CLASS         COUNT\n";
  uint64_t counted = 0;
  for (const SyscallDesc& desc : SyscallTable()) {
    const uint64_t count = stats.Count(desc.id);
    os << "  " << std::setw(13) << std::left << desc.name << "  " << std::setw(8)
       << SyscallClassName(desc.klass) << std::right << "  " << std::setw(9) << count << "\n";
    if (desc.klass != SyscallClass::kNoEntry) {
      counted += count;
    }
  }
  os << "  total counted=" << counted << " (kernel syscalls=" << stats.syscalls << ")\n";
  return os.str();
}

}  // namespace ufork
