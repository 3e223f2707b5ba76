// paper-sweep: one CompiledModel::run per (dataset, GNN) cell over the
// paper's five graphs × {GCN, GraphSAGE, GAT, GINConv}, plus the HyGCN and
// AWB-GCN models on the Fig. 13 cells. Single-threaded.
//
// Why: it stresses dataset synthesis (Reddit's generate_graph dominates
// setup) and the engine's weighting, attention and aggregation stages, and
// it never touches serve. DiffPool is left out: its Reddit cell alone costs
// as much as the rest of the sweep and exercises no stage the others skip.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/awb_gcn.hpp"
#include "baselines/hygcn.hpp"
#include "core/serving.hpp"
#include "datasets/synthetic.hpp"
#include "energy/energy_model.hpp"
#include "harness.hpp"
#include "nn/layers.hpp"
#include "nn/reference.hpp"

namespace perfbench {
namespace {

using namespace gnnie;

struct Model {
  GnnKind kind;
  const char* name;
  double paper_vs_hygcn;  ///< Fig. 13 geomean speedup (0: HyGCN cannot run it)
};

constexpr Model kModels[] = {{GnnKind::kGcn, "gcn", 25.0},
                             {GnnKind::kGraphSage, "graphsage", 72.0},
                             {GnnKind::kGat, "gat", 0.0},
                             {GnnKind::kGinConv, "ginconv", 7.0}};
constexpr double kPaperVsAwbGcn = 2.1;

struct Graph {
  std::string name;
  Csr graph;
  SparseMatrix features;
  std::vector<Csr> sampled;  ///< GraphSAGE neighborhoods, one per layer
  std::vector<ModelConfig> models;
  std::vector<std::shared_ptr<const GnnWeights>> weights;  ///< per kModels entry
};

class PaperSweep final : public Workload {
 public:
  void setup(Ctx& ctx) override {
    graphs_.clear();
    std::uint64_t tag = 0;
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
        g.features = generate_features(spec, derive_seed(ctx.opt.seed, ++tag));
      }
      for (const Model& m : kModels) {
        ModelConfig mc;
        mc.kind = m.kind;
        mc.input_dim = spec.feature_length;  // Table III: hidden 128, 2 layers, sample 25
        Scope s(ctx.tracer, "nn.weights", g.name);
        g.weights.push_back(
            std::make_shared<const GnnWeights>(init_weights(mc, derive_seed(ctx.opt.seed, ++tag))));
        g.models.push_back(mc);
      }
      {
        Scope s(ctx.tracer, "nn.sample", g.name);
        for (std::uint32_t l = 0; l < g.models.front().num_layers; ++l) {
          g.sampled.push_back(sample_neighborhood(g.graph, g.models.front().sample_size,
                                                  derive_seed(ctx.opt.seed, ++tag)));
        }
      }
      graphs_.push_back(std::move(g));
    }
  }

  void pass(Ctx& ctx, PassOut& out) override {
    auto& mo = out.modeled;
    std::vector<double> cell_ms;
    std::vector<std::vector<double>> vs_hygcn(std::size(kModels));
    std::vector<double> vs_awb;
    std::uint64_t edges = 0, blocks = 0, skipped = 0, agg_hits = 0, agg_accesses = 0;
    std::uint64_t row_hits = 0, row_total = 0;
    double imbalance_sum = 0.0, weighting_reports = 0.0;
    const HygcnModel hygcn;
    const AwbGcnModel awb;

    for (const Graph& g : graphs_) {
      edges += g.graph.edge_count();
      const EngineConfig config = EngineConfig::paper_default(large_dataset(g.name));
      const Engine engine(config, CachePolicy::make(CachePolicyKind::kDegreeAware));
      for (std::size_t mi = 0; mi < std::size(kModels); ++mi) {
        const Model& m = kModels[mi];
        const ModelConfig& mc = g.models[mi];
        const std::string cell = g.name + "/" + m.name;
        Scope cell_span(ctx.tracer, "cell", cell, cell);
        ctx.attempt("paper-sweep " + cell, [&] {
          const bool sage = m.kind == GnnKind::kGraphSage;
          CompiledModel model = [&] {
            Scope s(ctx.tracer, "core.compile", g.name);
            return engine.compile(mc, g.weights[mi]);
          }();
          GraphPlanPtr plan = [&] {
            Scope s(ctx.tracer, "core.plan", g.name);
            return model.plan(g.graph, sage ? g.sampled : std::vector<Csr>{});
          }();
          const RunRequest request{plan, &g.features};
          InferenceResult result = [&] {
            Scope s(ctx.tracer, "core.run", g.name);
            return model.run(request);
          }();
          const InferenceReport& rep = result.report;
          const double gnnie_s = rep.runtime_seconds();
          cell_ms.push_back(gnnie_s * 1e3);

          for (std::size_t l = 0; l < rep.layers.size() && l < 2; ++l) {
            const LayerReport& lr = rep.layers[l];
            const std::string p = "core.l" + std::to_string(l) + ".";
            Cycles weighting = lr.weighting.total_cycles;
            if (lr.mlp2) weighting += lr.mlp2->total_cycles;
            mo[p + "weighting_cycles"] += static_cast<double>(weighting);
            if (lr.attention) {
              mo[p + "attention_cycles"] += static_cast<double>(lr.attention->total_cycles);
            }
            mo[p + "aggregation_cycles"] += static_cast<double>(lr.aggregation.total_cycles);
            mo[p + "activation_cycles"] += static_cast<double>(lr.activation_cycles);
          }
          for (const LayerReport& lr : rep.layers) {
            for (const WeightingReport* w : {&lr.weighting, lr.mlp2 ? &*lr.mlp2 : nullptr}) {
              if (w == nullptr) continue;
              imbalance_sum += w->row_imbalance();
              weighting_reports += 1.0;
              blocks += w->blocks_total;
              skipped += w->blocks_skipped;
              mo["core.weighting.stall_cycles"] += static_cast<double>(w->stall_cycles);
              mo["core.weighting.lr_moved_blocks"] += static_cast<double>(w->lr_moved_blocks);
            }
            agg_hits += lr.aggregation.buffer_hits;
            agg_accesses += lr.aggregation.buffer_accesses;
            mo["core.aggregation.rounds"] += static_cast<double>(lr.aggregation.rounds);
            mo["core.aggregation.evictions"] += static_cast<double>(lr.aggregation.evictions);
          }
          mo["mem.dram_mb"] +=
              static_cast<double>(rep.dram.bytes_read + rep.dram.bytes_written) / 1048576.0;
          row_hits += rep.dram.row_hits;
          row_total += rep.dram.row_hits + rep.dram.row_misses;
          mo["energy.mj_total"] += compute_energy(rep).total() * 1e3;

          if (HygcnModel::supports(m.kind)) {
            Scope s(ctx.tracer, "baselines.hygcn", g.name);
            vs_hygcn[mi].push_back(hygcn.run(mc, g.graph, g.features).runtime_seconds / gnnie_s);
          }
          if (AwbGcnModel::supports(m.kind)) {
            Scope s(ctx.tracer, "baselines.awbgcn", g.name);
            vs_awb.push_back(awb.run(mc, g.graph, g.features).runtime_seconds / gnnie_s);
          }
          if (ctx.check) {
            defer_check(ctx, g, mi, cell, std::move(model), std::move(plan),
                        std::move(result.output), rep.total_cycles);
          }
          return true;
        });
      }
    }

    mo["modeled_ms_geomean"] = geomean(cell_ms);
    mo["datasets.edges_generated"] = static_cast<double>(edges);
    mo["core.weighting.row_imbalance"] =
        weighting_reports == 0.0 ? 0.0 : imbalance_sum / weighting_reports;
    mo["core.weighting.blocks_skipped_frac"] =
        blocks == 0 ? 0.0 : static_cast<double>(skipped) / static_cast<double>(blocks);
    mo["core.aggregation.buffer_hit_rate"] =
        agg_accesses == 0 ? 0.0 : static_cast<double>(agg_hits) / static_cast<double>(agg_accesses);
    mo["mem.row_hit_rate"] =
        row_total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(row_total);
    // Fidelity: modeled geomean speedups beside Fig. 13's. The datasets are
    // synthetic and stat-matched, so nothing else about the model is
    // validated against the paper.
    for (std::size_t mi = 0; mi < std::size(kModels); ++mi) {
      if (vs_hygcn[mi].empty()) continue;
      const std::string p = std::string("baselines.vs_hygcn.") + kModels[mi].name;
      mo[p] = geomean(vs_hygcn[mi]);
      mo[p + ".paper"] = kModels[mi].paper_vs_hygcn;
      mo[p + ".err"] = std::fabs(mo[p] / kModels[mi].paper_vs_hygcn - 1.0);
    }
    mo["baselines.vs_awbgcn.gcn"] = geomean(vs_awb);
    mo["baselines.vs_awbgcn.gcn.paper"] = kPaperVsAwbGcn;
    mo["baselines.vs_awbgcn.gcn.err"] = std::fabs(geomean(vs_awb) / kPaperVsAwbGcn - 1.0);
  }

 private:
  /// The cell's output matches the reference forward pass, and cost()
  /// charges exactly the cycles run() reported.
  static void defer_check(Ctx& ctx, const Graph& g, std::size_t mi, const std::string& cell,
                          CompiledModel model, GraphPlanPtr plan, Matrix output,
                          Cycles run_cycles) {
    auto got = std::make_shared<const Matrix>(std::move(output));
    ctx.defer_check("paper-sweep check " + cell, [&ctx, &g, mi, cell, model = std::move(model),
                                                   plan = std::move(plan), got, run_cycles] {
      const bool sage = kModels[mi].kind == GnnKind::kGraphSage;
      const Matrix want = [&] {
        Scope s(ctx.tracer, "nn.reference", g.name, cell);
        return reference_forward(g.models[mi], *g.weights[mi], g.graph, g.features,
                                 sage ? g.sampled : std::vector<Csr>{});
      }();
      const Cycles costed = [&] {
        Scope s(ctx.tracer, "core.cost", g.name, cell);
        return model.cost(RunRequest{plan, &g.features}).total_cycles;
      }();
      const double err = rel_error(*got, want);
      if (err > kRelTolerance) {
        std::fprintf(stderr, "%s: output relative error %.3g vs reference\n", cell.c_str(), err);
      }
      if (costed != run_cycles) {
        std::fprintf(stderr, "%s: cost() %llu cycles != run() %llu cycles\n", cell.c_str(),
                     static_cast<unsigned long long>(costed),
                     static_cast<unsigned long long>(run_cycles));
      }
      return err <= kRelTolerance && costed == run_cycles;
    });
  }

  std::vector<Graph> graphs_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep() { return std::make_unique<PaperSweep>(); }

}  // namespace perfbench
