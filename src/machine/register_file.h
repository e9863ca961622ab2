// Simulated capability register file.
//
// On Morello every general-purpose register is capability-width and carries a tag, so integers
// and pointers coexist in the same file; μFork exploits this at fork time to relocate exactly
// the registers that hold capabilities (paper §3.5 step 2: "tags extend to values in registers,
// allowing differentiation of pointers from integers").
#ifndef UFORK_SRC_MACHINE_REGISTER_FILE_H_
#define UFORK_SRC_MACHINE_REGISTER_FILE_H_

#include <array>

#include "src/cheri/capability.h"

namespace ufork {

inline constexpr int kNumGpRegisters = 31;  // c0..c30 (c31 is the zero register)

struct RegisterFile {
  std::array<Capability, kNumGpRegisters> c{};
  Capability pcc;  // program counter capability: bounds PIC-relative references (§4.2)
  Capability csp;  // stack pointer capability
  Capability ddc;  // default data capability: ambient authority over the μprocess region
};

}  // namespace ufork

#endif  // UFORK_SRC_MACHINE_REGISTER_FILE_H_
