// Deterministic pseudo-random number generation.
//
// Everything in the checker must be replayable from a seed, so all random
// decisions (schedule exploration, workload generation, Mailboat's random
// message IDs in simulation) flow through Rng instances seeded explicitly.
#ifndef PERENNIAL_SRC_BASE_RAND_H_
#define PERENNIAL_SRC_BASE_RAND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/hash.h"

namespace perennial {

// SplitMix64: used to expand a single seed into stream state.
uint64_t SplitMix64(uint64_t& state);

// xoshiro256** by Blackman & Vigna — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over [0, 2^64).
  uint64_t Next();

  // Uniform over [0, bound) via Lemire's method; bound must be > 0.
  uint64_t Below(uint64_t bound);

  // Uniform over [lo, hi] inclusive; requires lo <= hi.
  uint64_t Range(uint64_t lo, uint64_t hi);

  // Bernoulli(p) with p in [0,1].
  bool Chance(double p);

  // Shuffles v in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(Below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // Forks an independent stream (for per-thread generators).
  Rng Fork();

  // Mixes the generator's position into a fingerprint.
  void MixState(Hasher128* h) const {
    for (uint64_t word : s_) {
      h->MixU64(word);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace perennial

#endif  // PERENNIAL_SRC_BASE_RAND_H_
