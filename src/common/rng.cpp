#include "common/rng.hpp"

#include <cmath>

#include "common/require.hpp"

namespace gnnie {
namespace {

constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

}  // namespace

std::uint64_t splitmix64(std::uint64_t x) {
  std::uint64_t z = x + kGoldenGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Rng::reseed(std::uint64_t seed) {
  // The splitmix64 generator: outputs for seed + γ, seed + 2γ, ….
  std::uint64_t sm = seed;
  for (auto& s : state_) {
    s = splitmix64(sm);
    sm += kGoldenGamma;
  }
  have_spare_gaussian_ = false;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  GNNIE_REQUIRE(bound > 0, "next_below needs a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::next_double(double lo, double hi) {
  GNNIE_REQUIRE(lo <= hi, "empty interval");
  return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_gaussian_ = mag * std::sin(two_pi * u2);
  have_spare_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

bool Rng::next_bool(double p_true) { return next_double() < p_true; }

std::uint64_t Rng::next_power_law(std::uint64_t lo, std::uint64_t hi, double alpha) {
  GNNIE_REQUIRE(lo > 0 && lo <= hi, "power-law support must be positive and non-empty");
  GNNIE_REQUIRE(alpha > 1.0, "power-law exponent must exceed 1");
  // Inverse CDF of the continuous Pareto truncated to [lo, hi+1), floored.
  const double a = 1.0 - alpha;
  const double lo_p = std::pow(static_cast<double>(lo), a);
  const double hi_p = std::pow(static_cast<double>(hi) + 1.0, a);
  const double u = next_double();
  const double x = std::pow(lo_p + u * (hi_p - lo_p), 1.0 / a);
  auto v = static_cast<std::uint64_t>(x);
  if (v < lo) v = lo;
  if (v > hi) v = hi;
  return v;
}

std::vector<std::uint32_t> Rng::sample_without_replacement(std::uint32_t n, std::uint32_t k) {
  GNNIE_REQUIRE(k <= n, "cannot sample more elements than the population");
  // Floyd's algorithm: O(k) expected inserts.
  std::vector<std::uint32_t> out;
  out.reserve(k);
  std::vector<bool> chosen;  // only used when k is a large fraction of n
  if (k * 2 >= n) {
    chosen.assign(n, false);
    std::uint32_t remaining = k;
    for (std::uint32_t i = n - k; i < n && remaining > 0; ++i) {
      auto t = static_cast<std::uint32_t>(next_below(i + 1));
      if (chosen[t]) t = i;
      chosen[t] = true;
      out.push_back(t);
      --remaining;
    }
    return out;
  }
  // Small-k path: hash-set-free quadratic probe over the output vector is
  // fine because k << n keeps collisions rare.
  for (std::uint32_t i = n - k; i < n; ++i) {
    auto t = static_cast<std::uint32_t>(next_below(i + 1));
    bool dup = false;
    for (std::uint32_t prev : out) {
      if (prev == t) {
        dup = true;
        break;
      }
    }
    out.push_back(dup ? i : t);
  }
  return out;
}

}  // namespace gnnie
