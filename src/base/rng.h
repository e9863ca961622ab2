// Deterministic pseudo-random number generation (xoshiro256** seeded via splitmix64).
//
// Every stochastic element of the simulation (ASLR placement, workload key choice, request
// inter-arrival jitter) draws from an explicitly seeded Rng so runs are exactly reproducible.
#ifndef UFORK_SRC_BASE_RNG_H_
#define UFORK_SRC_BASE_RNG_H_

#include <array>
#include <cstdint>

#include "src/base/check.h"

namespace ufork {

class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state, as recommended by the authors.
    uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). bound must be nonzero.
  uint64_t NextBelow(uint64_t bound) {
    UF_DCHECK(bound != 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = NextU64();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> state_;
};

}  // namespace ufork

#endif  // UFORK_SRC_BASE_RNG_H_
