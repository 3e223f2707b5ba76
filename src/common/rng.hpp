// Deterministic pseudo-random number generation.
//
// All stochastic components of the library (dataset generators, neighbor
// sampling, weight initialization) draw from Rng so that every experiment is
// reproducible from a single seed. The engine itself is deterministic.
#pragma once

#include <cstdint>
#include <vector>

namespace gnnie {

/// The splitmix64 output for input x: a well-spread 64-bit hash of x.
/// Seeds Rng's state and hashes the keys of open-addressed tables.
std::uint64_t splitmix64(std::uint64_t x);

/// xoshiro256** — fast, high-quality, and stable across platforms (unlike
/// std::mt19937 + distributions, whose outputs vary across standard
/// libraries). Seeded via splitmix64 per the reference implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
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

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Standard normal via Box–Muller.
  double next_gaussian();

  /// Bernoulli trial.
  bool next_bool(double p_true);

  /// Power-law distributed integer in [lo, hi] with exponent `alpha` > 1
  /// (P(x) ∝ x^-alpha), via inverse-CDF sampling. Used by the synthetic
  /// graph/feature generators to reproduce heavy-tailed distributions.
  std::uint64_t next_power_law(std::uint64_t lo, std::uint64_t hi, double alpha);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), order unspecified.
  std::vector<std::uint32_t> sample_without_replacement(std::uint32_t n, std::uint32_t k);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace gnnie
