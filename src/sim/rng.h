#pragma once

#include <cstdint>
#include <limits>

#include "sim/state_io.h"

namespace hht::sim {

/// Deterministic, seedable PRNG used by all workload generators.
///
/// xoshiro256** seeded via SplitMix64. We deliberately avoid <random>'s
/// distribution objects for reproducibility: their outputs are
/// implementation-defined, while every value produced here is identical
/// across platforms and standard libraries, so experiment inputs (and
/// therefore cycle counts) are bit-exact everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      // SplitMix64 step.
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value (xoshiro256**).
  std::uint64_t next64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t nextBelow(std::uint64_t bound) {
    // Rejection loop terminates quickly; expected iterations < 2.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = next64();
      // 128-bit multiply high.
      const unsigned __int128 m =
          static_cast<unsigned __int128>(r) * static_cast<unsigned __int128>(bound);
      if (static_cast<std::uint64_t>(m) >= threshold) {
        return static_cast<std::uint64_t>(m >> 64);
      }
    }
  }

  /// Uniform double in [0, 1).
  double nextDouble() {
    // 53 high bits -> [0,1) with full double precision.
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [lo, hi).
  float nextFloat(float lo, float hi) {
    return lo + static_cast<float>(nextDouble()) * (hi - lo);
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool nextBool(double p) { return nextDouble() < p; }

  /// Checkpoint hook: the full generator state is the four state words.
  void io(StateIo& ar) {
    for (auto& word : state_) ar.u64(word);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace hht::sim
