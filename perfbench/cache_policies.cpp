// cache-policies: on the paper's five graphs, GCN aggregation at feature
// width 128 with a 4-way set-associative input buffer. Each pass runs
// cache::analyze_workload (trace replays under every policy plus the
// Belady oracle), then AggregationEngine::run under each of the six
// CachePolicyKinds. Single-threaded.
//
// Why: it drives the aggregation layer differently from paper-sweep —
// replacement policies are swapped, and on-demand and Belady make random
// DRAM pulls — and it is the only workload that drives src/cache replay.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/alloc.hpp"
#include "common/rng.hpp"
#include "core/aggregation.hpp"
#include "datasets/synthetic.hpp"
#include "harness.hpp"
#include "mem/hbm.hpp"
#include "nn/layers.hpp"

namespace perfbench {
namespace {

using namespace gnnie;

constexpr std::size_t kFeatureWidth = 128;
constexpr std::uint32_t kAssociativity = 4;  // Fig. 9's 4-way buffer model

struct Graph {
  std::string name;
  Csr graph;
  Matrix hw;  ///< weighted features entering aggregation, |V| × 128
};

/// Engine misses that the trace replay must reproduce exactly: the
/// policies whose replay models the engine's own replacement.
bool replay_exact(CachePolicyKind kind) {
  return kind == CachePolicyKind::kOnDemand || kind == CachePolicyKind::kBeladyOracle ||
         kind == CachePolicyKind::kDualCache;
}

class CachePolicies final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    graphs_.clear();
    std::uint64_t tag = 100;
    for (const DatasetScale& ds : sweep_datasets(ctx.opt.tiny)) {
      const DatasetSpec spec = spec_by_short_name(ds.name).scaled(ds.scale);
      Graph g;
      g.name = ds.name;
      {
        Scope s(ctx.tracer, "datasets.graph", g.name);
        g.graph = generate_graph(spec, derive_seed(ctx.opt.seed, ++tag));
      }
      {
        Scope s(ctx.tracer, "datasets.features", g.name);
        Rng rng(derive_seed(ctx.opt.seed, ++tag));
        g.hw = Matrix(g.graph.vertex_count(), kFeatureWidth);
        for (float& v : g.hw.data()) v = static_cast<float>(rng.next_double(-1.0, 1.0));
      }
      graphs_.push_back(std::move(g));
    }
  }

  void pass(Ctx& ctx, PassOut& out) override {
    auto& mo = out.modeled;
    std::vector<double> pair_ms;
    std::uint64_t edges = 0, agg_hits = 0, agg_accesses = 0, row_hits = 0, row_total = 0;
    struct Pooled {
      double accesses = 0, fetches = 0, oracle_hits = 0;
    };
    std::vector<Pooled> pooled(all_cache_policy_kinds().size());

    for (const Graph& g : graphs_) {
      Scope cell(ctx.tracer, "cell", g.name, g.name);
      edges += g.graph.edge_count();
      EngineConfig config = EngineConfig::paper_default(large_dataset(g.name));
      config.cache.associativity = kAssociativity;
      const std::uint64_t capacity = AggregationEngine::cache_capacity_for(
          config, g.graph, kFeatureWidth, AggKind::kGcnNormalizedSum);
      const cache::WorkloadCacheAnalysis analysis = [&] {
        Scope s(ctx.tracer, "cache.analyze", g.name);
        return cache::analyze_workload(g.graph, capacity);
      }();
      // The reference aggregation, computed by the first check that needs it.
      auto want = std::make_shared<std::optional<Matrix>>();

      for (std::size_t pi = 0; pi < analysis.policies.size(); ++pi) {
        const auto& entry = analysis.policies[pi];
        const std::string policy_name = to_string(entry.kind);
        const std::string pair = g.name + "/" + policy_name;
        ctx.attempt("cache-policies " + pair, [&] {
          const auto policy = CachePolicy::make(entry.kind);
          AggregationTask task;
          task.graph = &g.graph;
          task.hw = &g.hw;
          task.kind = AggKind::kGcnNormalizedSum;
          task.policy = policy.get();
          HbmModel hbm(config.hbm);
          AggregationReport rep;
          Matrix got;
          {
            Scope s(ctx.tracer, "cache." + policy_name + ".engine", g.name, pair);
            AggregationEngine engine(config, &hbm);
            got = engine.run(task, &rep);
          }
          pair_ms.push_back(1e3 * static_cast<double>(rep.total_cycles) / config.clock_hz);
          const std::string p = "cache." + policy_name + ".";
          mo[p + "agg_cycles"] += static_cast<double>(rep.total_cycles);
          mo[p + "dram_mb"] += static_cast<double>(rep.dram_bytes) / 1048576.0;
          pooled[pi].accesses += static_cast<double>(entry.replay.accesses);
          pooled[pi].fetches += static_cast<double>(entry.replay.fetches);
          pooled[pi].oracle_hits +=
              static_cast<double>(analysis.oracle.accesses - analysis.oracle.fetches);
          agg_hits += rep.buffer_hits;
          agg_accesses += rep.buffer_accesses;
          mo["core.aggregation.rounds"] += static_cast<double>(rep.rounds);
          mo["core.aggregation.evictions"] += static_cast<double>(rep.evictions);
          mo["mem.dram_mb"] += static_cast<double>(rep.dram_bytes) / 1048576.0;
          row_hits += hbm.stats().row_hits;
          row_total += hbm.stats().row_hits + hbm.stats().row_misses;

          // The oracle fetches no more than any policy; where the replay
          // models the engine's replacement, engine misses (plus dual-cache
          // preloads) equal replay fetches.
          bool ok = analysis.oracle.fetches <= entry.replay.fetches;
          if (replay_exact(entry.kind)) {
            const std::uint64_t misses =
                rep.buffer_accesses - rep.buffer_hits + rep.dual_pinned_vertices;
            if (misses != entry.replay.fetches) {
              std::fprintf(stderr, "%s: engine misses %llu != replay fetches %llu\n",
                           pair.c_str(), static_cast<unsigned long long>(misses),
                           static_cast<unsigned long long>(entry.replay.fetches));
              ok = false;
            }
          }
          if (ctx.check) {
            auto out = std::make_shared<const Matrix>(std::move(got));
            ctx.defer_check("cache-policies check " + pair, [&ctx, &g, want, out, pair] {
              if (!*want) {
                Scope s(ctx.tracer, "nn.reference", g.name, g.name);
                *want = gcn_normalize_aggregate(g.graph, g.hw);
              }
              const double err = rel_error(*out, **want);
              if (err > kRelTolerance) {
                std::fprintf(stderr, "%s: output relative error %.3g\n", pair.c_str(), err);
              }
              return err <= kRelTolerance;
            });
          }
          return ok;
        });
      }
    }

    for (std::size_t pi = 0; pi < pooled.size(); ++pi) {
      const std::string p = std::string("cache.") + to_string(all_cache_policy_kinds()[pi]) + ".";
      const Pooled& q = pooled[pi];
      const double hits = q.accesses - q.fetches;
      mo[p + "hit_rate"] = q.accesses == 0 ? 0.0 : hits / q.accesses;
      mo[p + "oracle_frac"] = q.oracle_hits == 0 ? 0.0 : hits / q.oracle_hits;
    }
    mo["modeled_ms_geomean"] = geomean(pair_ms);
    mo["datasets.edges_generated"] = static_cast<double>(edges);
    mo["core.aggregation.buffer_hit_rate"] =
        agg_accesses == 0 ? 0.0 : static_cast<double>(agg_hits) / static_cast<double>(agg_accesses);
    mo["mem.row_hit_rate"] =
        row_total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(row_total);
  }

 private:
  std::vector<Graph> graphs_;
};

}  // namespace

std::unique_ptr<Workload> make_cache_policies() { return std::make_unique<CachePolicies>(); }

}  // namespace perfbench
