// Convenience constructors wiring a Kernel to each fork backend.
//
// The three functions correspond to the three systems the paper compares (§5): μFork on
// Unikraft, CheriBSD (monolithic MAS), and Nephele (VM cloning).
#ifndef UFORK_SRC_BASELINE_SYSTEM_H_
#define UFORK_SRC_BASELINE_SYSTEM_H_

#include <memory>

#include "src/baseline/mas_backend.h"
#include "src/baseline/vmclone_backend.h"
#include "src/kernel/kernel.h"
#include "src/ufork/compaction.h"
#include "src/ufork/ufork_backend.h"

namespace ufork {

inline std::unique_ptr<Kernel> MakeUforkKernel(KernelConfig config = {}) {
  auto kernel = std::make_unique<Kernel>(config, std::make_unique<UforkBackend>());
  // Only μFork owns a relocation mechanism, so only μFork gets the incremental compaction
  // backend; MAS and VM-clone kernels leave the service engine-less (it never runs).
  kernel->compaction().InstallEngine(MakeUforkCompactionEngine(*kernel));
  return kernel;
}

inline std::unique_ptr<Kernel> MakeMasKernel(KernelConfig config = {},
                                             MasParams params = {}) {
  return std::make_unique<Kernel>(config, std::make_unique<MasBackend>(params));
}

inline std::unique_ptr<Kernel> MakeVmCloneKernel(KernelConfig config = {},
                                                 VmCloneParams params = {}) {
  return std::make_unique<Kernel>(config, std::make_unique<VmCloneBackend>(params));
}

}  // namespace ufork

#endif  // UFORK_SRC_BASELINE_SYSTEM_H_
