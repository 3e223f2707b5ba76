// Bit-exact pins for the engine's host hot paths. Every modeled number (the
// report JSON) and every output float of compile → plan → run, of
// AggregationEngine::run under each cache policy, the structure of every
// synthetic graph and every row of every synthetic feature matrix are hashed
// and compared against constants captured from the straightforward
// implementations the fast paths replaced. A change that
// moves one of these hashes changes what the simulator computes — that is a
// modeling change, not an optimization, and its constants must be re-captured
// deliberately. The HBM oracle re-derives the DRAM model from a test-local
// copy of the original per-burst formula over randomized geometries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "core/cache_policy.hpp"
#include "core/report_io.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "mem/hbm.hpp"
#include "nn/layers.hpp"

namespace gnnie {
namespace {

/// FNV-1a over raw bytes: order-sensitive and platform-independent.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      const auto byte = static_cast<unsigned char>(x >> (8 * b));
      bytes(&byte, 1);
    }
  }
  /// Bit patterns, so -0.0f vs 0.0f and every last ulp count.
  void floats(std::span<const float> xs) {
    for (float x : xs) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &x, sizeof bits);
      u64(bits);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

Matrix random_dense(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (float& x : m.data()) x = static_cast<float>(rng.next_double(-1.0, 1.0));
  return m;
}

/// Small graphs shaped like Cora (sparse, long-tailed), Pubmed (sparse,
/// narrow features) and Reddit (dense — about 500 neighbors per vertex, 70%
/// of all pairs — the regime the undirected edge loop is hottest in).
struct PinGraph {
  const char* name;
  DatasetId id;
  double scale;
};
constexpr std::array<PinGraph, 3> kPinGraphs = {{{"CR", DatasetId::kCora, 0.05},
                                                  {"PB", DatasetId::kPubmed, 0.01},
                                                  {"RD", DatasetId::kReddit, 0.003}}};

constexpr std::array<GnnKind, 5> kPinKinds = {GnnKind::kGcn, GnnKind::kGraphSage,
                                              GnnKind::kGat, GnnKind::kGinConv,
                                              GnnKind::kDiffPool};

/// The paper-default engine plus a tiny-buffer variant that forces
/// evictions, refetches and multiple Rounds on every pinned graph.
std::vector<EngineConfig> pin_configs() {
  EngineConfig roomy = EngineConfig::paper_default(false);
  EngineConfig tight = roomy;
  tight.buffers.input = 4u << 10;
  return {roomy, tight};
}

/// Hash of compile → plan → run for one (graph, GNN) cell under every pin
/// config: the full report JSON and the bitwise output.
std::uint64_t serving_hash(const Dataset& d, GnnKind kind) {
  ModelConfig m;
  m.kind = kind;
  m.input_dim = d.spec.feature_length;
  m.hidden_dim = 16;
  m.pool_clusters = 8;
  const GnnWeights w = init_weights(m, 42);
  Fnv h;
  for (const EngineConfig& config : pin_configs()) {
    const CompiledModel model = Engine(config).compile(m, w);
    std::vector<Csr> sampled;
    if (kind == GnnKind::kGraphSage) {
      for (std::uint32_t l = 0; l < m.num_layers; ++l) {
        sampled.push_back(sample_neighborhood(d.graph, m.sample_size, 100 + l));
      }
    }
    const InferenceResult r = model.run({model.plan(d.graph, std::move(sampled)), &d.features});
    h.str(report_to_json(r.report));
    h.u64(r.output.rows());
    h.u64(r.output.cols());
    h.floats(r.output.data());
  }
  return h.value();
}

// Captured from the reference implementations; see the file comment.
// Rows follow kPinGraphs, columns kPinKinds.
constexpr std::array<std::array<std::uint64_t, 5>, 3> kServingPins = {{
    {0x7f11b35a458c0d96ull, 0xf3d0b877ab1d09afull, 0xda139360d3c80708ull, 0xd4ac7dea302ca066ull,
     0xd4f1e4472587e6cdull},
    {0x3bae4ee244eab1b6ull, 0xb4d7f8e41bd0e0afull, 0xa8cccba749c72788ull, 0x491ba7d7a256cf95ull,
     0x17ace10416c4089aull},
    {0xb75a344f7ce1fb5cull, 0x14189bda1e0d032aull, 0xc0a3ad0a29de44b7ull, 0x44af44da2a1536e0ull,
     0xc67278a01e915e79ull},
}};

/// One test per pinned graph, so each stays well inside a per-test timeout
/// under the sanitizer builds.
class PerGraph : public ::testing::TestWithParam<std::size_t> {};

std::string graph_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return kPinGraphs[info.param].name;
}

TEST_P(PerGraph, CompilePlanRunReportsAndOutputs) {
  const PinGraph& pg = kPinGraphs[GetParam()];
  const Dataset d = generate_dataset(spec_of(pg.id).scaled(pg.scale), 7);
  for (std::size_t ki = 0; ki < kPinKinds.size(); ++ki) {
    const std::uint64_t got = serving_hash(d, kPinKinds[ki]);
    EXPECT_EQ(got, kServingPins[GetParam()][ki])
        << pg.name << " × " << to_string(kPinKinds[ki]) << ": 0x" << std::hex << got;
  }
}

/// Every field of an aggregation report, via the report JSON writer.
std::string aggregation_json(const AggregationReport& agg) {
  InferenceReport wrapper;
  wrapper.layers.emplace_back();
  wrapper.layers.back().aggregation = agg;
  return report_to_json(wrapper);
}

void hash_hbm(Fnv& h, const HbmModel& hbm) {
  const HbmStats& s = hbm.stats();
  for (std::uint64_t x : {s.bytes_read, s.bytes_written, s.bursts, s.row_hits, s.row_misses,
                          s.accesses, s.client_bytes[0], s.client_bytes[1], s.client_bytes[2]}) {
    h.u64(x);
  }
}

/// One aggregation run: report JSON, DRAM stats, access log and output.
void hash_aggregation(Fnv& h, const EngineConfig& config, const CachePolicy& policy,
                      AggregationTask task) {
  HbmModel hbm(config.hbm);
  AggregationEngine engine(config, &hbm);
  std::vector<VertexId> log;
  task.policy = &policy;
  task.access_log = &log;
  AggregationReport rep;
  const Matrix out = engine.run(task, &rep);
  h.str(aggregation_json(rep));
  hash_hbm(h, hbm);
  h.u64(log.size());
  for (VertexId v : log) h.u64(v);
  h.floats(out.data());
}

/// AggregationEngine::run for one graph under one cache policy: GCN, plain
/// sum and GAT over the undirected graph, max over a sampled (directed)
/// adjacency; fully associative and 4-way set-associative; a roomy input
/// buffer and a tight one (evictions, Rounds, γ relief pulses), plus a
/// one-kilobyte buffer at γ = 2 that drives the livelock residue sweep.
std::uint64_t aggregation_hash(const Csr& g, CachePolicyKind kind) {
  const auto policy = CachePolicy::make(kind);
  const Matrix hw = random_dense(g.vertex_count(), 24, 5);
  const Csr sampled = sample_neighborhood(g, 5, 77);
  std::vector<float> e1(g.vertex_count() * 2), e2(g.vertex_count() * 2);
  Rng rng(11);
  for (float& x : e1) x = static_cast<float>(rng.next_double(-2.0, 2.0));
  for (float& x : e2) x = static_cast<float>(rng.next_double(-2.0, 2.0));

  Fnv h;
  for (std::uint32_t assoc : {0u, 4u}) {
    for (Bytes input : {Bytes{256} << 10, Bytes{2} << 10}) {
      EngineConfig config = EngineConfig::paper_default(false);
      config.cache.associativity = assoc;
      config.buffers.input = input;
      AggregationTask task;
      task.graph = &g;
      task.hw = &hw;
      task.kind = AggKind::kGcnNormalizedSum;
      hash_aggregation(h, config, *policy, task);
      task.kind = AggKind::kPlainSum;
      task.self_weight = 1.25f;
      hash_aggregation(h, config, *policy, task);
      task.kind = AggKind::kGatSoftmax;
      task.gat_heads = 2;
      task.e1 = &e1;
      task.e2 = &e2;
      hash_aggregation(h, config, *policy, task);
      AggregationTask directed;
      directed.graph = &sampled;
      directed.directed = true;
      directed.hw = &hw;
      directed.kind = AggKind::kMax;
      hash_aggregation(h, config, *policy, directed);
    }
  }
  EngineConfig livelock = EngineConfig::paper_default(false);
  livelock.buffers.input = 1u << 10;
  livelock.cache.gamma = 2;
  AggregationTask task;
  task.graph = &g;
  task.hw = &hw;
  task.kind = AggKind::kGcnNormalizedSum;
  hash_aggregation(h, livelock, *policy, task);
  AggregationTask directed;
  directed.graph = &sampled;
  directed.directed = true;
  directed.hw = &hw;
  directed.kind = AggKind::kPlainSum;
  hash_aggregation(h, livelock, *policy, directed);
  return h.value();
}

// Rows follow kPinGraphs, columns all_cache_policy_kinds().
constexpr std::array<std::array<std::uint64_t, 6>, 3> kAggregationPins = {{
    {0x95f77bd9dd802ebdull, 0xf362fa78e1e50af2ull, 0x33d5b5db3fd7b69eull, 0x46668c9f47735969ull,
     0xc545c3d6338620f8ull, 0x151034c68a4454ecull},
    {0x3a6b35f2d9a19650ull, 0x55064739a279bdf0ull, 0x138f94caf4f63041ull, 0xc19b5b5852695fa7ull,
     0x553b444a07f06089ull, 0xb7cb2b810c473611ull},
    {0x6893d3911319db91ull, 0x3b8f3377bcce1114ull, 0x7dd04575d9350d5aull, 0x8974bed123d830a8ull,
     0x3a970ea1c053ef5aull, 0x1249c7142ae68758ull},
}};

TEST_P(PerGraph, AggregationUnderEveryCachePolicy) {
  ASSERT_EQ(all_cache_policy_kinds().size(), kAggregationPins[0].size());
  const PinGraph& pg = kPinGraphs[GetParam()];
  const Csr g = generate_graph(spec_of(pg.id).scaled(pg.scale), 3);
  for (std::size_t pi = 0; pi < all_cache_policy_kinds().size(); ++pi) {
    const CachePolicyKind kind = all_cache_policy_kinds()[pi];
    const std::uint64_t got = aggregation_hash(g, kind);
    EXPECT_EQ(got, kAggregationPins[GetParam()][pi])
        << pg.name << " × " << to_string(kind) << ": 0x" << std::hex << got;
  }
}

INSTANTIATE_TEST_SUITE_P(BitExactPin, PerGraph, ::testing::Range<std::size_t>(0, kPinGraphs.size()),
                         graph_name);

// Csr::structure_fingerprint of generate_graph for every Table II dataset
// (table2_specs order) × seeds {1, 2, 3} × scales {0.001, 0.005}. The
// smallest scales hit the deterministic near-clique fill.
constexpr std::array<double, 2> kFingerprintScales = {0.001, 0.005};
constexpr std::array<std::uint64_t, 3> kFingerprintSeeds = {1, 2, 3};
constexpr std::array<std::array<std::uint64_t, 6>, 5> kFingerprintPins = {{
    {0xe7713cd1963edc45ull, 0xa01c3f580c621439ull, 0x39a9bc5940e73cfbull, 0xeed6ebba94d7500dull,
     0x5ea5c5fcc2ef10f1ull, 0xafdc823a3c15afb1ull},
    {0xe7713cd1963edc45ull, 0x96bb55bf320b08ddull, 0x6cc0672a5670e7d9ull, 0x60aacc44e1be25eull,
     0x4d74c47892c52936ull, 0x4cc87af2958c0d96ull},
    {0x3c885c1c08c613b3ull, 0xc3fbc7b885b0ec11ull, 0x17933a51062c903full, 0xbd85a77d488e0f09ull,
     0xa0e3734835d21fd7ull, 0xcf93dae701cf5becull},
    {0xd3b44168f9ed0ca0ull, 0x80bdac6de3f8ba8full, 0x3d92681cafe07044ull, 0x4950b5a2573523adull,
     0x39a6661a11e09de9ull, 0xa40258452552ba2aull},
    {0x34359acc0b215814ull, 0x34359acc0b215814ull, 0x34359acc0b215814ull, 0x513416b0d0ef8135ull,
     0x786be21119b81046ull, 0x4c5f28f53d5be14eull},
}};

TEST(BitExactPin, SyntheticGraphFingerprints) {
  for (std::size_t di = 0; di < table2_specs().size(); ++di) {
    const DatasetSpec& spec = table2_specs()[di];
    std::size_t col = 0;
    for (double scale : kFingerprintScales) {
      for (std::uint64_t seed : kFingerprintSeeds) {
        const std::uint64_t got =
            generate_graph(spec.scaled(scale), seed).structure_fingerprint();
        EXPECT_EQ(got, kFingerprintPins[di][col])
            << spec.short_name << " scale " << scale << " seed " << seed << ": 0x" << std::hex
            << got;
        ++col;
      }
    }
  }
}

/// Hash of every row of a feature matrix: its nnz, indices and value bits.
std::uint64_t feature_fingerprint(const SparseMatrix& f) {
  Fnv h;
  h.u64(f.row_count());
  h.u64(f.col_count());
  for (std::size_t r = 0; r < f.row_count(); ++r) {
    const SparseRow& row = f.row(r);
    h.u64(row.nnz());
    for (std::uint32_t i : row.indices()) h.u64(i);
    h.floats(row.values());
  }
  return h.value();
}

// generate_features over the graph fingerprints' (scale, seed) grid, in three
// groups of rows: the Table II specs with their calibrated index skew; CR, CS
// and PPI at Cora's feature length (the serve-mix shape); and the Table II
// specs again with uniform indices (index_zipf_s = 0).
constexpr std::array<DatasetId, 3> kWideFeatureIds = {DatasetId::kCora, DatasetId::kCiteseer,
                                                      DatasetId::kPpi};
constexpr std::array<std::array<std::uint64_t, 6>, 13> kFeatureFingerprintPins = {{
    {0x8a09c2cf534ae524ull, 0x39f5df0656bbd60full, 0x33127a3ceb300410ull, 0x8a09c2cf534ae524ull,
     0x39f5df0656bbd60full, 0x33127a3ceb300410ull},
    {0xf49adc0c3124a304ull, 0x51d3309a5aa5f3c9ull, 0xd2e46ec39a9d293bull, 0x9bb85cdb327a2f0cull,
     0xeda487941c5a3b77ull, 0x6087d4776f0577b2ull},
    {0xa87cb6361cfef2a5ull, 0xfc377ab4bb762a5dull, 0x9ef8454545b52d05ull, 0xb16ee29ce6ea7590ull,
     0xd3fe7fa0436281d8ull, 0x52fd26cef02f42eull},
    {0xe8b2c456f793f3a0ull, 0xddf6e4ae7a1027fbull, 0xee3534ff517ec4ceull, 0x8857d0162cbd46ull,
     0xeaea16e4f153da82ull, 0x210a699c159da1a4ull},
    {0x2a862a2e56a6099cull, 0xb7d4ea4c3fa1d684ull, 0xe6995effc411abe3ull, 0x3dca7a516b5da932ull,
     0x3a32ef7e350ddc5ull, 0xb36314c64ff19690ull},
    {0x8a09c2cf534ae524ull, 0x39f5df0656bbd60full, 0x33127a3ceb300410ull, 0x8a09c2cf534ae524ull,
     0x39f5df0656bbd60full, 0x33127a3ceb300410ull},
    {0x713441cdd8470db6ull, 0xef6036285d59dfbbull, 0xcccd6434e13429f9ull, 0xc21cd7527ea6d600ull,
     0xf38cc7a01979a1a7ull, 0xb7c1a9bb50b413bdull},
    {0x95c237b07292de28ull, 0x64accd5ada30f9a9ull, 0xf08570694f8c5eaaull, 0x4600fe1e68553085ull,
     0xab32452d85155e1full, 0x86e60bf6b216a407ull},
    {0x8f43d99f50792c82ull, 0xc1fc4d838889b5aeull, 0xc85fe0dbe9080c14ull, 0x8f43d99f50792c82ull,
     0xc1fc4d838889b5aeull, 0xc85fe0dbe9080c14ull},
    {0xc6d2fe2530ad559full, 0x4e7278d5479f9698ull, 0xbb522816e85d2053ull, 0x27359417568a51eull,
     0x458f237c5c0151b5ull, 0xd989b8a42859595cull},
    {0x121682f539f75410ull, 0xb588fa52771eec89ull, 0xfea03a633ef3f6ddull, 0xa6773564305970c5ull,
     0x81e36aaf3572ef4full, 0x2c8198868545c811ull},
    {0x76d21ca00da19794ull, 0x2ea0bb5d228210eeull, 0xfff62f9f2ec1dcb3ull, 0x7aeb504925913c98ull,
     0x8cac29a75fc72de0ull, 0x384e4023a12a36c2ull},
    {0x430e8dd9d3325196ull, 0xc79c71ff0059f5f2ull, 0x3733951ec2714ffull, 0xe08aabd2c65548a6ull,
     0xfc82c92e6bddbb3full, 0xd9f4b27d269f64b5ull},
}};

TEST(BitExactPin, SyntheticFeatureFingerprints) {
  struct Case {
    std::string label;
    DatasetSpec spec;
    FeatureMixture mix;
  };
  std::vector<Case> cases;
  for (const DatasetSpec& spec : table2_specs()) cases.push_back({spec.short_name, spec, {}});
  for (DatasetId id : kWideFeatureIds) {
    DatasetSpec spec = spec_of(id);
    spec.feature_length = spec_of(DatasetId::kCora).feature_length;
    cases.push_back({spec.short_name + " F=1433", spec, {}});
  }
  FeatureMixture uniform;
  uniform.index_zipf_s = 0.0;
  for (const DatasetSpec& spec : table2_specs()) {
    cases.push_back({spec.short_name + " uniform", spec, uniform});
  }
  ASSERT_EQ(cases.size(), kFeatureFingerprintPins.size());
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    std::size_t col = 0;
    for (double scale : kFingerprintScales) {
      for (std::uint64_t seed : kFingerprintSeeds) {
        const std::uint64_t got = feature_fingerprint(
            generate_features(cases[ci].spec.scaled(scale), seed, cases[ci].mix));
        EXPECT_EQ(got, kFeatureFingerprintPins[ci][col])
            << cases[ci].label << " scale " << scale << " seed " << seed << ": 0x" << std::hex
            << got;
        ++col;
      }
    }
  }
}

/// Test-local copy of the original HbmModel::access: per burst, four
/// div/mods for channel/row/bank, burst_cycles() recomputed every time.
/// HbmModel must match it in stats, epoch cycles and every channel's busy
/// time, bit for bit.
class PerBurstHbm {
 public:
  explicit PerBurstHbm(const HbmConfig& c)
      : c_(c),
        open_row_(static_cast<std::size_t>(c.channels) * c.banks_per_channel, ~0ull),
        busy_(c.channels, 0.0),
        last_(static_cast<std::size_t>(c.channels) * kSlots, ~0ull) {}

  void begin_epoch() { busy_.assign(c_.channels, 0.0); }

  void access(std::uint64_t addr, Bytes bytes, bool write, MemClient client) {
    if (bytes == 0) return;
    ++stats.accesses;
    const std::uint64_t first = addr / c_.burst_bytes;
    const std::uint64_t last = (addr + bytes - 1) / c_.burst_bytes;
    const std::uint64_t count = last - first + 1;
    const Bytes moved = count * c_.burst_bytes;
    (write ? stats.bytes_written : stats.bytes_read) += moved;
    stats.client_bytes[static_cast<std::size_t>(client)] += moved;
    stats.bursts += count;
    const std::uint32_t bursts_per_row = c_.row_bytes / c_.burst_bytes;
    for (std::uint64_t b = first; b <= last; ++b) {
      const auto channel = static_cast<std::uint32_t>(b % c_.channels);
      const std::uint64_t channel_burst = b / c_.channels;
      const std::uint64_t row = channel_burst / bursts_per_row;
      const auto bank = static_cast<std::uint32_t>(row % c_.banks_per_channel);
      std::uint64_t& open = open_row_[static_cast<std::size_t>(channel) * c_.banks_per_channel +
                                      bank];
      const std::size_t region = std::min<std::uint64_t>(addr >> 36, kSlots / 2 - 1);
      const std::size_t slot =
          static_cast<std::size_t>(channel) * kSlots + region * 2 + (write ? 1 : 0);
      const bool streaming = channel_burst == last_[slot] + 1;
      last_[slot] = channel_burst;
      double service = c_.burst_cycles();
      if (open == row) {
        ++stats.row_hits;
      } else {
        ++stats.row_misses;
        open = row;
        service += streaming ? c_.streaming_miss_penalty : c_.row_miss_penalty;
      }
      busy_[channel] += service;
    }
  }

  Cycles epoch_cycles() const {
    const double worst = *std::max_element(busy_.begin(), busy_.end());
    return static_cast<Cycles>(std::llround(std::ceil(worst)));
  }
  const std::vector<double>& channel_busy() const { return busy_; }

  HbmStats stats;

 private:
  static constexpr std::size_t kSlots = 16;
  HbmConfig c_;
  std::vector<std::uint64_t> open_row_;
  std::vector<double> busy_;
  std::vector<std::uint64_t> last_;
};

void expect_same_stats(const HbmStats& a, const HbmStats& b) {
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.bursts, b.bursts);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_misses, b.row_misses);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.client_bytes, b.client_bytes);
}

TEST(HbmOracle, RandomizedAccessesMatchPerBurstFormula) {
  std::vector<HbmConfig> geometries;
  geometries.emplace_back();  // paper default: 8 channels, 16 banks, 32 bursts/row
  {
    HbmConfig c;  // nothing a power of two: 3 channels, 5 banks, 7 bursts/row
    c.channels = 3;
    c.banks_per_channel = 5;
    c.burst_bytes = 64;
    c.row_bytes = 7 * 64;
    c.peak_bandwidth_bytes_per_s = 100.0e9;
    geometries.push_back(c);
  }
  {
    HbmConfig c;  // one channel, one bank, one burst per row, odd burst size
    c.channels = 1;
    c.banks_per_channel = 1;
    c.burst_bytes = 48;
    c.row_bytes = 48;
    geometries.push_back(c);
  }
  {
    HbmConfig c;  // many channels, odd penalties
    c.channels = 13;
    c.banks_per_channel = 3;
    c.burst_bytes = 32;
    c.row_bytes = 11 * 32;
    c.row_miss_penalty = 17.3;
    c.streaming_miss_penalty = 0.7;
    geometries.push_back(c);
  }

  Rng rng(2024);
  for (const HbmConfig& c : geometries) {
    HbmModel model(c);
    PerBurstHbm oracle(c);
    std::uint64_t cursor = 0;
    for (int i = 0; i < 4000; ++i) {
      if (rng.next_below(64) == 0) {
        model.begin_epoch();
        oracle.begin_epoch();
      }
      // Mix sequential streams, random jumps and region-crossing addresses
      // (regions are 2^36 apart; everything past the 8th folds into it).
      std::uint64_t addr = 0;
      switch (rng.next_below(4)) {
        case 0: addr = cursor; break;
        case 1: addr = rng.next_below(1ull << 30); break;
        case 2: addr = (rng.next_below(12) << 36) + rng.next_below(1ull << 20); break;
        default: addr = cursor + rng.next_below(4096); break;
      }
      Bytes bytes = rng.next_below(8) == 0 ? rng.next_below(1u << 16) : rng.next_below(600);
      if (rng.next_below(16) == 0) bytes = 0;
      const bool write = rng.next_below(3) == 0;
      const auto client = static_cast<MemClient>(rng.next_below(kMemClientCount));
      model.access(addr, bytes, write, client);
      oracle.access(addr, bytes, write, client);
      cursor = addr + bytes;
      ASSERT_EQ(model.epoch_cycles(), oracle.epoch_cycles()) << "access " << i;
      // Same additions in the same order: bit-identical per channel.
      const std::span<const double> busy = model.channel_busy();
      ASSERT_TRUE(std::equal(busy.begin(), busy.end(), oracle.channel_busy().begin(),
                             oracle.channel_busy().end()))
          << "access " << i;
    }
    expect_same_stats(model.stats(), oracle.stats);
  }
}

}  // namespace
}  // namespace gnnie
