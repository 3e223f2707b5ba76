#include "datasets/synthetic.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "common/alias_table.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "graph/builder.hpp"

namespace gnnie {
namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + 1;
}

/// Unordered pair {u, v}, u != v, as a nonzero 64-bit key.
std::uint64_t pair_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// Insert-only set of pair keys: linear probing over a flat power-of-two
/// table with splitmix64 hashes (the serve/cost_cache.cpp scheme).
/// Key 0 marks an empty slot — pair_key never produces it. Sized once for
/// at most `max_keys` keys at ≤ 2/3 load, so it never rehashes.
class PairSet {
 public:
  explicit PairSet(std::uint64_t max_keys) {
    std::size_t slots = 16;
    while (slots * 2 < max_keys * 3) slots *= 2;
    slots_.assign(slots, 0);
  }

  std::uint64_t size() const { return size_; }

  /// The slot key's probe starts at.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(splitmix64(key)) & (slots_.size() - 1);
  }

  void prefetch(std::size_t slot) const { __builtin_prefetch(&slots_[slot]); }

  void insert(std::uint64_t key) { insert(key, home(key)); }

  /// insert(key) with start == home(key) already computed.
  void insert(std::uint64_t key, std::size_t start) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = start;; i = (i + 1) & mask) {
      if (slots_[i] == key) return;
      if (slots_[i] == 0) {
        slots_[i] = key;
        ++size_;
        return;
      }
    }
  }

  const std::vector<std::uint64_t>& slots() const { return slots_; }

 private:
  std::vector<std::uint64_t> slots_;
  std::uint64_t size_ = 0;
};

}  // namespace

Csr generate_graph(const DatasetSpec& spec, std::uint64_t seed) {
  GNNIE_REQUIRE(spec.vertices >= 2, "graph generation needs at least two vertices");
  const std::uint64_t max_pairs =
      static_cast<std::uint64_t>(spec.vertices) * (spec.vertices - 1) / 2;
  std::uint64_t target_pairs = std::min<std::uint64_t>(spec.edges / 2, max_pairs);
  GNNIE_REQUIRE(target_pairs > 0, "edge target too small");

  Rng rng(mix_seed(seed, 0xA11CE));

  // Chung–Lu weights: heavy-tailed with the spec's exponent. The weight cap
  // keeps expected multi-edge probability manageable for dense specs.
  std::vector<double> weights(spec.vertices);
  const auto w_hi = static_cast<std::uint64_t>(
      std::max<double>(8.0, std::sqrt(static_cast<double>(target_pairs))));
  for (double& w : weights) {
    w = static_cast<double>(rng.next_power_law(1, w_hi, spec.degree_exponent));
  }
  const AliasTable endpoints(weights);

  PairSet pairs(target_pairs);
  const std::uint64_t max_attempts = 64 * target_pairs + 1024;
  // The table outgrows the caches on the larger specs, so each attempt's
  // endpoints are drawn kLookahead attempts ahead and its slot prefetched.
  // The draws never depend on the inserts and rng is unused after the loop,
  // so the inserts — and where the loop stops — are exactly those of
  // drawing one attempt at a time.
  struct Attempt {
    std::uint64_t key;  ///< 0 for a self-pair, which is skipped
    std::size_t home;
  };
  constexpr std::size_t kLookahead = 16;
  std::array<Attempt, kLookahead> ahead{};
  const auto draw = [&]() -> Attempt {
    const VertexId u = endpoints.sample(rng);
    const VertexId v = endpoints.sample(rng);
    if (u == v) return {0, 0};
    const std::uint64_t key = pair_key(u, v);
    const std::size_t home = pairs.home(key);
    pairs.prefetch(home);
    return {key, home};
  };
  for (Attempt& a : ahead) a = draw();
  std::uint64_t attempts = 0;
  while (pairs.size() < target_pairs && attempts < max_attempts) {
    Attempt& a = ahead[attempts % kLookahead];
    ++attempts;
    if (a.key != 0) pairs.insert(a.key, a.home);
    a = draw();
  }
  // Near-clique corner (tiny scaled specs): fill deterministically.
  if (pairs.size() < target_pairs) {
    for (VertexId u = 0; u < spec.vertices && pairs.size() < target_pairs; ++u) {
      for (VertexId v = u + 1; v < spec.vertices && pairs.size() < target_pairs; ++v) {
        pairs.insert(pair_key(u, v));
      }
    }
  }

  // build() sorts the edge list, so the table's slot order is immaterial.
  GraphBuilder b(spec.vertices);
  for (std::uint64_t key : pairs.slots()) {
    if (key == 0) continue;
    b.add_edge(static_cast<VertexId>(key >> 32), static_cast<VertexId>(key & 0xffffffffu));
  }
  b.symmetrize();
  // Vertex ids stay in arbitrary (weight-uncorrelated) order, like the
  // dictionary ids of the Planetoid datasets — ID order carries no useful
  // locality, which is exactly the regime GNNIE's degree-aware layout
  // addresses.
  return b.build();
}

SparseMatrix generate_features(const DatasetSpec& spec, std::uint64_t seed,
                               const FeatureMixture& mix_in) {
  FeatureMixture mix = mix_in;
  if (mix.index_zipf_s < 0.0) mix.index_zipf_s = spec.feature_zipf_s;
  GNNIE_REQUIRE(spec.feature_length > 0, "feature length must be positive");
  GNNIE_REQUIRE(spec.feature_sparsity >= 0.0 && spec.feature_sparsity < 1.0,
                "sparsity must be in [0,1)");
  Rng rng(mix_seed(seed, 0xFEA7));

  const double mean_nnz =
      (1.0 - spec.feature_sparsity) * static_cast<double>(spec.feature_length);
  // For dense specs (Reddit: 48% sparsity) the Region-B mode would clip at
  // the feature length and drag the realized mean below target; pull B in
  // and push A out so the mixture mean stays at 1.0× the target.
  double center_b = mix.region_b_center;
  const double max_center_b =
      0.90 * static_cast<double>(spec.feature_length) / std::max(mean_nnz, 1.0);
  if (center_b > max_center_b) {
    center_b = max_center_b;
    // w_a·c_a + (1-w_a)·c_b = 1.
  }
  const double center_a =
      std::max(0.05, (1.0 - (1.0 - mix.region_a_weight) * center_b) / mix.region_a_weight);

  // Zipfian feature popularity: index i carries weight (i+1)^-s, so
  // low-index ranges are denser (bag-of-words frequent terms). Nonzero
  // positions are drawn without replacement proportionally to these weights
  // (Efraimidis–Vitter keys: top-z of log(u)/w).
  // key_i = log(u)/w_i with w_i = (i+1)^-s, i.e. log(u)·(i+1)^s; log(u) is
  // negative, so larger (i+1)^s → more negative key → less likely selected.
  std::vector<double> recip_weight(spec.feature_length);
  for (std::uint32_t i = 0; i < spec.feature_length; ++i) {
    recip_weight[i] = std::pow(static_cast<double>(i) + 1.0, mix.index_zipf_s);
  }
  TopKeys top(std::move(recip_weight));

  std::vector<SparseRow> rows;
  rows.reserve(spec.vertices);
  std::vector<double> u(spec.feature_length);
  for (std::uint32_t v = 0; v < spec.vertices; ++v) {
    const bool region_a = rng.next_bool(mix.region_a_weight);
    const double center = (region_a ? center_a : center_b) * mean_nnz;
    const double drawn = center * (1.0 + mix.region_sigma * rng.next_gaussian());
    // Clamp symmetrically around the center: one-sided truncation at the
    // feature length would bias the realized mean (and thus the sparsity).
    // Near-dense specs put Region A's center past the feature length; that
    // row is then full.
    const double sigma_abs = mix.region_sigma * center;
    const double delta = std::max(
        0.0, std::min({2.5 * sigma_abs, static_cast<double>(spec.feature_length) - center,
                       center}));
    const auto nnz = std::min(
        static_cast<std::uint32_t>(std::clamp(drawn, center - delta, center + delta)),
        spec.feature_length);

    std::vector<std::uint32_t> idx(nnz);
    if (nnz > 0) {
      // u = 0 becomes 1e-300 before the selection sees it, so the threshold
      // filter and the exact keys both use the value the key is taken of.
      for (double& x : u) {
        x = rng.next_double();
        if (x <= 0.0) x = 1e-300;
      }
      top.select(u, idx);
    }
    std::vector<float> val(idx.size());
    for (float& x : val) x = static_cast<float>(rng.next_double(0.1, 1.0));
    rows.emplace_back(std::move(idx), std::move(val), spec.feature_length);
  }
  return SparseMatrix(std::move(rows), spec.feature_length);
}

// TopKeys: the top-k Efraimidis–Vitter keys key_i = log(u_i)·r_i (r_i > 0,
// u_i ∈ (0, 1), so every key < 0; larger = selected), the same set the
// full-array nth_element picks, found mostly through a threshold filter.
//
// Exactness. key_i > T ⇔ log(u_i) > T/r_i ⇔ u_i > exp(T/r_i) in real
// arithmetic, so for a level bound T the filter u_i > lo_i with
// lo_i = exp(T/r_i)·(1 − 1e-9) keeps every index whose computed key exceeds
// T: the 1e-9 relative margin is about 1e-9 in log space, while the
// rounding of log, exp, the division and the product moves the comparison
// by at most |T/r_i|·1e-15 + 1e-15 ≤ 1e-12, since levels stop at
// |T/r_i| ≤ 700. The candidates then get the exact key, computed as the
// full-array code computes it. If at least k of them exceed T, the top k
// of the whole array are among the candidates, and every non-candidate's
// key is ≤ T < the k-th largest. The top-k *set* is then unique unless the
// k-th and (k+1)-th largest candidate keys tie — where the full array's
// choice depends on nth_element's internal order. So a row escalates to
// the next (looser) level when fewer than k candidate keys exceed T, and
// falls back to the full-array code on a tie or past the last level.
TopKeys::TopKeys(std::vector<double> recip_weight)
    : r_(std::move(recip_weight)), cand_(r_.size()), key_(r_.size()), order_(r_.size()) {
  keys_.reserve(r_.size());
  const auto [r_min, r_max] = std::minmax_element(r_.begin(), r_.end());
  if (r_.empty() || !(*r_min > 0.0) || !std::isfinite(*r_max)) return;  // full array only
  const auto f = static_cast<double>(r_.size());
  std::vector<double> lo(r_.size());
  // Bounds grow geometrically: the expected candidate count at T is
  // Σ 1 − exp(T/r_i), which grows by at most 1.25× a level. Past 80% of the
  // indices the filter saves little, so those rows take the full array.
  for (double bound = -1.0 / f; -bound / *r_min <= 700.0; bound *= 1.25) {
    double expected = 0.0;
    for (std::size_t i = 0; i < r_.size(); ++i) {
      const double e = std::exp(bound / r_[i]);
      expected += 1.0 - e;
      lo[i] = e * (1.0 - 1e-9);
    }
    if (expected > 0.8 * f) break;
    bound_.push_back(bound);
    expected_.push_back(expected);
    lo_.insert(lo_.end(), lo.begin(), lo.end());
  }
}

void TopKeys::select(std::span<const double> u, std::vector<std::uint32_t>& idx) {
  const std::size_t k = idx.size();
  const std::size_t f = r_.size();
  GNNIE_REQUIRE(u.size() == f && k <= f, "one uniform per index, at most one pick each");
  if (k == 0) return;
  // Start where the expected candidate count clears k by three standard
  // deviations, so escalations are rare.
  const double need = static_cast<double>(k) + 3.0 * std::sqrt(static_cast<double>(k)) + 4.0;
  for (auto level = static_cast<std::size_t>(
           std::lower_bound(expected_.begin(), expected_.end(), need) - expected_.begin());
       level < bound_.size(); ++level) {
    const double* lo = lo_.data() + level * f;
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < f; ++i) {
      cand_[n] = i;
      n += u[i] > lo[i] ? 1 : 0;
    }
    std::size_t above = 0;
    for (std::size_t c = 0; c < n; ++c) {
      const std::uint32_t i = cand_[c];
      key_[c] = std::log(u[i]) * r_[i];
      above += key_[c] > bound_[level] ? 1 : 0;
    }
    if (above < k) continue;
    if (take_candidates(n, idx)) return;
    break;  // tie at the k-th key
  }
  // The full-array reference: nth_element over every (key, index) pair.
  keys_.clear();
  for (std::uint32_t i = 0; i < f; ++i) keys_.emplace_back(std::log(u[i]) * r_[i], i);
  std::nth_element(keys_.begin(), keys_.begin() + static_cast<std::ptrdiff_t>(k), keys_.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; i < k; ++i) idx[i] = keys_[i].second;
  std::sort(idx.begin(), idx.end());
}

/// The k largest of the first n candidate keys (n ≥ k), in index order;
/// false when the k-th and (k+1)-th largest tie.
bool TopKeys::take_candidates(std::size_t n, std::vector<std::uint32_t>& idx) {
  const std::size_t k = idx.size();
  double kth = -std::numeric_limits<double>::infinity();
  if (n > k) {
    std::copy_n(key_.begin(), n, order_.begin());
    const auto nth = order_.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(order_.begin(), nth, order_.begin() + static_cast<std::ptrdiff_t>(n),
                     std::greater<>());
    kth = *std::min_element(order_.begin(), nth);
    if (kth == *nth) return false;
  }
  std::size_t out = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (key_[c] >= kth) idx[out++] = cand_[c];
  }
  return true;
}

Dataset generate_dataset(const DatasetSpec& spec, std::uint64_t seed) {
  Dataset d{spec, generate_graph(spec, mix_seed(seed, 1)),
            generate_features(spec, mix_seed(seed, 2))};
  return d;
}

Dataset generate_dataset(DatasetId id, double scale, std::uint64_t seed) {
  return generate_dataset(spec_of(id).scaled(scale), seed);
}

}  // namespace gnnie
