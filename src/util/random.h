// Deterministic pseudo-random number generation for workloads and tests.
#pragma once

#include <cstdint>
#include <vector>

namespace stx {

/// xoshiro256++ pseudo-random generator.
///
/// All randomness in stxbar (workload jitter, random bindings, property
/// tests) flows through this generator so that every experiment is
/// reproducible from a single seed. The algorithm is Blackman & Vigna's
/// xoshiro256++ 1.0; it is small, fast and has no dependence on the
/// platform's std::mt19937 implementation details.
class rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64 so that any
  /// seed (including 0) produces a well-mixed state.
  explicit rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool chance(double p);

  /// Geometric-ish bounded jitter: value in [base - spread, base + spread],
  /// clamped below at `min_value`. Used for per-iteration timing noise in
  /// workload models.
  std::int64_t jitter(std::int64_t base, std::int64_t spread,
                      std::int64_t min_value = 0);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  int weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `v`.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(v.data(), v.size());
  }

  /// Fisher-Yates shuffle of the `n` elements at `data` (the same draws
  /// as shuffling a vector of those elements).
  template <typename T>
  void shuffle(T* data, std::size_t n) {
    for (std::int64_t i = static_cast<std::int64_t>(n) - 1; i > 0; --i) {
      const auto j = uniform_int(0, i);
      using std::swap;
      swap(data[i], data[j]);
    }
  }

  /// Splits off an independently seeded child generator; children with
  /// distinct `stream` values are decorrelated from each other and from
  /// the parent.
  rng split(std::uint64_t stream) const;

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;
};

}  // namespace stx
