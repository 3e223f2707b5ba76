// Stat-matched synthetic dataset generation (substitute for the paper's
// real datasets; see DESIGN.md §1).
//
// Graphs: Chung–Lu model. Each vertex gets a power-law weight; undirected
// edges are drawn with endpoint probability proportional to weight until the
// target unique-pair count is reached, then mirrored so the directed edge
// count matches Table II. This reproduces the two graph properties GNNIE's
// mechanisms key on: heavy-tailed degree distributions and extreme adjacency
// sparsity.
//
// Features: per-vertex nonzero counts are drawn from a two-component
// mixture ("Region A" sparse / "Region B" denser, Fig. 2) whose mean matches
// the Table II sparsity; nonzero positions follow a Zipf index popularity
// (FeatureMixture::index_zipf_s), values positive (bag-of-words-like).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "datasets/spec.hpp"
#include "graph/csr.hpp"
#include "sparse/sparse_matrix.hpp"

namespace gnnie {

struct Dataset {
  DatasetSpec spec;      ///< the (possibly scaled) spec this was generated from
  Csr graph;             ///< undirected: every edge appears in both directions
  SparseMatrix features; ///< |V| × feature_length input features
};

struct FeatureMixture {
  /// Fraction of vertices in the sparse Region A (vs denser Region B).
  double region_a_weight = 2.0 / 3.0;
  /// Region centers as multiples of the overall mean nnz; the defaults keep
  /// the mixture mean at 1.0× so Table II sparsity is matched:
  /// (2/3)·0.55 + (1/3)·1.90 ≈ 1.0.
  double region_a_center = 0.55;
  double region_b_center = 1.90;
  /// Within-region relative std deviation.
  double region_sigma = 0.22;
  /// Zipf exponent for feature-index popularity. Bag-of-words features have
  /// frequent and rare words, so nonzeros concentrate in some index ranges —
  /// the source of the per-CPE-row imbalance GNNIE's FM scheduler fixes
  /// (Fig. 16). 0 = uniform indices; negative = use the dataset spec's
  /// calibrated feature_zipf_s (the default).
  double index_zipf_s = -1.0;
};

/// Generates the graph only (no features). Deterministic in (spec, seed).
Csr generate_graph(const DatasetSpec& spec, std::uint64_t seed);

/// Generates the feature matrix only. Deterministic in (spec, seed).
SparseMatrix generate_features(const DatasetSpec& spec, std::uint64_t seed,
                               const FeatureMixture& mix = {});

/// Full dataset: graph + features (seeds derived from `seed`).
Dataset generate_dataset(const DatasetSpec& spec, std::uint64_t seed = 1);

/// Convenience: Table II dataset by id, optionally scaled.
Dataset generate_dataset(DatasetId id, double scale = 1.0, std::uint64_t seed = 1);

/// generate_features' choice of nonzero positions: the k largest
/// Efraimidis–Vitter keys log(u_i)·r_i — exactly the set that an
/// nth_element over all of them picks — found mostly through a per-index
/// threshold filter (synthetic.cpp has the exactness argument). Public so
/// its fallback paths can be tested directly.
class TopKeys {
 public:
  /// r_i = recip_weight[i], the reciprocal index weight (i+1)^s.
  explicit TopKeys(std::vector<double> recip_weight);

  /// Writes the indices of the idx.size() largest keys of u, ascending.
  /// u.size() must equal the weight count, idx.size() must not exceed it,
  /// and every u_i must lie in (0, 1).
  void select(std::span<const double> u, std::vector<std::uint32_t>& idx);

 private:
  bool take_candidates(std::size_t n, std::vector<std::uint32_t>& idx);

  std::vector<double> r_;
  std::vector<double> bound_;     ///< per level: the key bound T
  std::vector<double> expected_;  ///< per level: expected candidate count
  std::vector<double> lo_;        ///< level-major: per-index u thresholds
  std::vector<std::uint32_t> cand_;  ///< candidate indices, ascending
  std::vector<double> key_;          ///< their exact keys
  std::vector<double> order_;        ///< scratch for the k-th key
  std::vector<std::pair<double, std::uint32_t>> keys_;  ///< full-array path
};

}  // namespace gnnie
