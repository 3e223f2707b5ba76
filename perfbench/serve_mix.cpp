// serve-mix: one GCN CompiledModel serving a 4:4:2:1 mix of Cora, Citeseer,
// PPI (scale 0.05) and Pubmed on a 4-die cluster with warmth, coalescing up
// to 8, the two-track pipeline with plan variants {1, 8}, and the
// warmth-aware scheduler. Each graph has two feature matrices at Cora's
// feature length: 8 (plan, features) triples in all. Arrivals are
// open-loop Poisson traces at a fixed grid of offered loads.
//
// Each pass starts a fresh Cluster. The cold fill runs first: one
// single-request simulate per stream through bench::parallel_for with 4
// workers, sharing the cluster's cost cache the way the repo's sweeps do.
// Then each load point is simulated single-threaded on the warm cache.
//
// Why: it stresses serve — the event loop, the scheduler's estimates and
// ServiceCostCache — and uses datasets and core only lightly.
#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "harness.hpp"
#include "serve/cluster.hpp"
#include "serve/trace.hpp"

namespace perfbench {
namespace {

using namespace gnnie;

constexpr std::size_t kDies = 4;

// Offered load is frozen in absolute cycles, derived once at seed 1 on the
// commit that introduced this benchmark: the mix-weighted cold service time
// of the 8 triples. A later change to the modeled service cost therefore
// shows up as a latency change at the same offered load, not as a rescaled
// load. The p99 limit is 5 ms at the 1.3 GHz clock; at that commit the
// p99 is set by Pubmed's ~4.3 ms service, and queueing pushes it past the
// limit between loads 0.9 and 1.1. Tiny-scale runs derive both numbers
// from their own inputs instead.
constexpr double kFrozenMeanServiceCycles = 758102.59090909094;
constexpr double kFrozenP99LimitCycles = 6.5e6;
/// The p99 limit as a multiple of the mean service time (tiny scale only).
constexpr double kP99LimitServices = kFrozenP99LimitCycles / kFrozenMeanServiceCycles;

struct GraphMix {
  const char* name;
  double scale;
  double weight;
};

std::vector<GraphMix> mix(bool tiny) {
  if (tiny) return {{"CR", 0.2, 4}, {"CS", 0.2, 4}, {"PPI", 0.01, 2}, {"PB", 0.05, 1}};
  return {{"CR", 1.0, 4}, {"CS", 1.0, 4}, {"PPI", 0.05, 2}, {"PB", 1.0, 1}};
}

std::uint64_t content_hash(const SparseMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_in = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (std::size_t r = 0; r < m.row_count(); ++r) {
    const SparseRow& row = m.row(r);
    mix_in(row.nnz());
    for (std::uint32_t i : row.indices()) mix_in(i);
    for (float v : row.values()) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      mix_in(bits);
    }
  }
  return h;
}

double percentile(std::vector<Cycles> v, double pct) {
  std::sort(v.begin(), v.end());
  return static_cast<double>(percentile_of_sorted(v, pct));
}

class ServeMix final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    const bool tiny = ctx.opt.tiny;
    // Drop the previous inputs, holders of plans and pointers first.
    traces_.clear();
    cold_traces_.clear();
    streams_.clear();
    model_.reset();
    hashes_.clear();
    graphs_.clear();
    features_.clear();
    std::uint64_t tag = 200;
    std::uint32_t feature_length = spec_by_short_name("CR").feature_length;
    for (const GraphMix& gm : mix(tiny)) {
      DatasetSpec spec = spec_by_short_name(gm.name).scaled(gm.scale);
      spec.feature_length = feature_length;  // one model serves every graph
      {
        Scope s(ctx.tracer, "datasets.graph", gm.name);
        graphs_.push_back(generate_graph(spec, derive_seed(ctx.opt.seed, ++tag)));
      }
      Scope s(ctx.tracer, "datasets.features", gm.name);
      for (int variant = 0; variant < 2; ++variant) {
        features_.push_back(generate_features(spec, derive_seed(ctx.opt.seed, ++tag)));
      }
    }
    ModelConfig mc;
    mc.kind = GnnKind::kGcn;
    mc.input_dim = feature_length;
    auto weights = [&] {
      Scope s(ctx.tracer, "nn.weights");
      return std::make_shared<const GnnWeights>(init_weights(mc, derive_seed(ctx.opt.seed, ++tag)));
    }();

    EngineConfig config = EngineConfig::paper_default(false);
    config.warmth.enabled = true;
    config.batching.max_coalesce = 8;
    config.pipeline.enabled = true;
    config.pipeline.variant_widths = {1, 8};
    const Engine engine(config, CachePolicy::make(CachePolicyKind::kDegreeAware));
    {
      Scope s(ctx.tracer, "core.compile");
      model_.emplace(engine.compile(mc, weights));
    }
    const auto graphs = mix(tiny);
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      GraphPlanPtr plan = [&] {
        Scope s(ctx.tracer, "core.plan", graphs[gi].name);
        return model_->plan(graphs_[gi]);
      }();
      for (std::size_t variant = 0; variant < 2; ++variant) {
        streams_.push_back({plan, &features_[2 * gi + variant], graphs[gi].weight / 2.0});
      }
    }
    for (const SparseMatrix& f : features_) hashes_.push_back(content_hash(f));

    mean_service_ = kFrozenMeanServiceCycles;
    p99_limit_ = kFrozenP99LimitCycles;
    if (tiny) {
      double weighted = 0.0, total = 0.0;
      for (const serve::TraceStream& st : streams_) {
        weighted += st.weight *
                    static_cast<double>(model_->cost(RunRequest{st.plan, st.features}).total_cycles);
        total += st.weight;
      }
      mean_service_ = weighted / total;
      p99_limit_ = kP99LimitServices * mean_service_;
      std::printf("derived mean service %.17g cycles, p99 limit %.17g cycles\n", mean_service_,
                  p99_limit_);
    }

    const std::size_t requests = tiny ? 4000 : 400000;
    for (double rho : serve_load_grid()) {
      Scope s(ctx.tracer, "serve.trace_build", rho_label(rho));
      const double gap = mean_service_ / (rho * static_cast<double>(kDies));
      traces_.push_back(serve::RequestTrace::poisson(streams_, requests, gap,
                                                     derive_seed(ctx.opt.seed, ++tag)));
    }
    for (const serve::TraceStream& st : streams_) {
      cold_traces_.push_back(serve::RequestTrace::fixed_interval({st}, 1, 1));
    }
  }

  void pass(Ctx& ctx, PassOut& out) override {
    auto& mo = out.modeled;
    const serve::SimulateOptions options{.scheduler = serve::SchedulerKind::kWarmthAware};
    const serve::Cluster cluster(*model_, kDies);

    std::vector<ServingReport> cold(cold_traces_.size());
    {
      Scope s(ctx.tracer, "serve.cold_fill");
      bench::parallel_for(cold_traces_.size(), kDies, [&](std::size_t i) {
        cold[i] = cluster.simulate(cold_traces_[i], options);
      });
    }
    mo["serve.costed_triples"] = static_cast<double>(cluster.costed_triples());
    ctx.attempt("serve-mix cold fill", [&] {
      std::vector<double> cold_ms;
      for (std::size_t i = 0; i < cold.size(); ++i) {
        const RequestRecord& r = cold[i].requests.at(0);
        mo["serve.cold_cycles." + std::to_string(i)] = static_cast<double>(r.service_cycles());
        cold_ms.push_back(1e3 * static_cast<double>(r.service_cycles()) / cold[i].clock_hz);
        if (!ctx.check) continue;
        // The cold charge of each stream equals a fresh cost() of its triple.
        ctx.defer_check("serve-mix cold charge " + std::to_string(i), [this, &ctx, i, r] {
          const Cycles fresh = [&] {
            Scope c(ctx.tracer, "core.cost");
            return model_->cost(RunRequest{streams_[i].plan, streams_[i].features}).total_cycles;
          }();
          if (r.shed || r.service_cycles() != fresh) {
            std::fprintf(stderr, "stream %zu: cold charge %llu != fresh cost %llu\n", i,
                         static_cast<unsigned long long>(r.service_cycles()),
                         static_cast<unsigned long long>(fresh));
            return false;
          }
          return true;
        });
      }
      // The serving counterpart of the kernel workloads' geomean over
      // cells: the modeled cold service time of each (plan, features)
      // triple. Latency under load is reported per layer (serve.*).
      mo["modeled_ms_geomean"] = geomean(cold_ms);
      return cluster.costed_triples() == streams_.size();
    });

    double events = 0.0, simulate_s = 0.0, max_rho = 0.0;
    const auto& grid = serve_load_grid();
    for (std::size_t li = 0; li < grid.size(); ++li) {
      const std::string label = rho_label(grid[li]);
      const serve::RequestTrace& trace = traces_[li];
      Scope point(ctx.tracer, "load_point", label, label);
      const auto t0 = std::chrono::steady_clock::now();
      const ServingReport rep = [&] {
        Scope s(ctx.tracer, "serve.simulate", label);
        return cluster.simulate(trace, options);
      }();
      simulate_s += seconds_since(t0);
      events += static_cast<double>(rep.requests.size() + rep.total_groups());

      Scope rollup(ctx.tracer, "serve.rollup", label);
      // Every offered request is one operation: it must be recorded once,
      // and either shed or served after it arrived.
      std::uint64_t bad = 0;
      std::vector<Cycles> queue;
      queue.reserve(rep.requests.size());
      for (const RequestRecord& r : rep.requests) {
        if (!r.shed && (r.start < r.arrival || r.finish <= r.start)) ++bad;
        if (!r.shed) queue.push_back(r.queue_cycles());
      }
      if (rep.requests.size() != trace.size() ||
          rep.completed_count() + rep.shed_count() != trace.size()) {
        bad = trace.size();
      }
      ctx.attempted += trace.size();
      ctx.failed += bad;
      if (bad != 0) std::fprintf(stderr, "FAILED serve-mix %s: %llu bad records\n", label.c_str(),
                                 static_cast<unsigned long long>(bad));

      const double us_per_cycle = 1e6 / rep.clock_hz;
      const std::vector<Cycles> lat = rep.sorted_latencies();
      const double p50 = static_cast<double>(percentile_of_sorted(lat, 50.0));
      const double p99 = static_cast<double>(percentile_of_sorted(lat, 99.0));
      mo["serve.p50_us." + label] = p50 * us_per_cycle;
      mo["serve.p99_us." + label] = p99 * us_per_cycle;
      mo["serve.samples." + label] = static_cast<double>(lat.size());
      // A growing backlog shows as a queue still draining long after the
      // last arrival.
      const double drain = static_cast<double>(rep.makespan - trace.horizon());
      mo["serve.drain_us." + label] = drain * us_per_cycle;
      if (p99 <= p99_limit_ && drain <= p99_limit_) max_rho = std::max(max_rho, grid[li]);

      double util = 0.0;
      for (std::size_t d = 0; d < rep.dies; ++d) util += rep.die_utilization(d);
      Cycles stream_cycles = 0;
      for (Cycles c : rep.die_stream_cycles) stream_cycles += c;
      mo["serve.queue_us_p99." + label] = percentile(std::move(queue), 99.0) * us_per_cycle;
      mo["serve.utilization." + label] = util / static_cast<double>(rep.dies);
      mo["serve.warm_hit_rate." + label] = rep.warm_hit_rate();
      mo["serve.coalesce_rate." + label] = rep.coalesce_rate();
      mo["serve.mean_batch_size." + label] = rep.mean_batch_size();
      mo["serve.pipeline_hidden_frac." + label] =
          stream_cycles == 0 ? 0.0
                             : static_cast<double>(rep.pipeline_hidden_cycles) /
                                   static_cast<double>(stream_cycles);
      mo["serve.plan_swaps." + label] = static_cast<double>(rep.total_plan_swaps());
    }
    mo["serve.max_rho_at_slo"] = max_rho;
    mo["serve.p99_limit_us"] = p99_limit_ * 1e6 / model_->config().clock_hz;
    out.host["serve.events_per_s"] = events / simulate_s;

    // The traces hold raw pointers to the feature matrices: after every
    // pass they must still be alive and unmodified.
    ctx.defer_check("serve-mix feature matrices unchanged", [this] {
      for (std::size_t i = 0; i < features_.size(); ++i) {
        if (content_hash(features_[i]) != hashes_[i]) return false;
      }
      return true;
    });
  }

 private:
  std::vector<Csr> graphs_;
  std::vector<SparseMatrix> features_;
  std::vector<std::uint64_t> hashes_;
  std::optional<CompiledModel> model_;
  std::vector<serve::TraceStream> streams_;
  std::vector<serve::RequestTrace> traces_;
  std::vector<serve::RequestTrace> cold_traces_;
  double mean_service_ = 0.0;
  double p99_limit_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix() { return std::make_unique<ServeMix>(); }

}  // namespace perfbench
