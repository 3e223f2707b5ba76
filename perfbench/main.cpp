// Benchmark program: runs one named workload against the GNNIE library and
// prints its metrics as one JSON line.
//
//   perfbench --workload paper-sweep --seed 3 --seconds 20 --trace 0
//
// A run synthesizes its inputs from the seed several times (setup_s is the
// median), then repeats the measured phase until its passes add up to
// --seconds (sweep_s is the median pass). The first pass also checks every output,
// after its timed work. Every pass must reproduce the first pass's
// modeled numbers exactly. With --trace 1 the passes alternate traced and
// untraced (at least two of each), the per-layer metrics come from the
// traced ones, and the spans are written as Chrome trace-event JSON to
// --trace-out.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cache_policy.hpp"
#include "datasets/spec.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;  // name, unit

const MetricList& end_to_end_metrics() {
  static const MetricList m = {{"setup_s", "s"},
                               {"sweep_s", "s"},
                               {"peak_rss_mb", "MB"},
                               {"modeled_ms_geomean", "ms"}};
  return m;
}

MetricList build_per_layer() {
  MetricList m = {{"datasets.graph_s", "s"},   {"datasets.features_s", "s"},
                  {"datasets.edges_generated", "count"},
                  {"nn.weights_s", "s"},       {"nn.sample_s", "s"},
                  {"nn.reference_s", "s"},     {"core.compile_s", "s"},
                  {"core.plan_s", "s"},        {"core.run_s", "s"}};
  for (const char* ds : {"CR", "CS", "PB", "PPI", "RD"}) {
    m.push_back({std::string("core.run_s.") + ds, "s"});
  }
  m.push_back({"core.cost_s", "s"});
  for (const char* l : {"l0", "l1"}) {
    for (const char* stage : {"weighting", "attention", "aggregation", "activation"}) {
      m.push_back({std::string("core.") + l + "." + stage + "_cycles", "cycles"});
    }
  }
  const MetricList core_tail = {{"core.weighting.row_imbalance", "ratio"},
                                {"core.weighting.blocks_skipped_frac", "fraction"},
                                {"core.weighting.stall_cycles", "cycles"},
                                {"core.weighting.lr_moved_blocks", "count"},
                                {"core.aggregation.buffer_hit_rate", "fraction"},
                                {"core.aggregation.rounds", "count"},
                                {"core.aggregation.evictions", "count"},
                                {"mem.dram_mb", "MB"},
                                {"mem.row_hit_rate", "fraction"},
                                {"energy.mj_total", "mJ"},
                                {"cache.analyze_s", "s"}};
  m.insert(m.end(), core_tail.begin(), core_tail.end());
  for (gnnie::CachePolicyKind kind : gnnie::all_cache_policy_kinds()) {
    const std::string p = std::string("cache.") + gnnie::to_string(kind) + ".";
    m.push_back({p + "engine_s", "s"});
    m.push_back({p + "hit_rate", "fraction"});
    m.push_back({p + "oracle_frac", "fraction"});
    m.push_back({p + "agg_cycles", "cycles"});
    m.push_back({p + "dram_mb", "MB"});
  }
  const MetricList baselines = {{"baselines.hygcn_s", "s"},
                                {"baselines.awbgcn_s", "s"},
                                {"baselines.vs_hygcn.gcn.err", "fraction"},
                                {"baselines.vs_hygcn.graphsage.err", "fraction"},
                                {"baselines.vs_hygcn.ginconv.err", "fraction"},
                                {"baselines.vs_awbgcn.gcn.err", "fraction"},
                                {"serve.trace_build_s", "s"},
                                {"serve.cold_fill_s", "s"},
                                {"serve.costed_triples", "count"}};
  m.insert(m.end(), baselines.begin(), baselines.end());
  for (double rho : serve_load_grid()) m.push_back({"serve.simulate_s." + rho_label(rho), "s"});
  m.push_back({"serve.rollup_s", "s"});
  m.push_back({"serve.events_per_s", "1/s"});
  for (const char* rho : {"rho0.5", "rho0.9", "rho1.3"}) {
    m.push_back({std::string("serve.p50_us.") + rho, "us"});
    m.push_back({std::string("serve.p99_us.") + rho, "us"});
    m.push_back({std::string("serve.samples.") + rho, "count"});
  }
  const MetricList serve_tail = {{"serve.max_rho_at_slo", "rho"},
                                 {"serve.queue_us_p99.rho0.9", "us"},
                                 {"serve.utilization.rho0.9", "fraction"},
                                 {"serve.warm_hit_rate.rho0.9", "fraction"},
                                 {"serve.coalesce_rate.rho0.9", "fraction"},
                                 {"serve.mean_batch_size.rho0.9", "count"},
                                 {"serve.pipeline_hidden_frac.rho0.9", "fraction"},
                                 {"serve.plan_swaps.rho0.9", "count"},
                                 {"trace.overhead_s", "s"}};
  m.insert(m.end(), serve_tail.begin(), serve_tail.end());
  return m;
}

const MetricList& per_layer_metrics() {
  static const MetricList m = build_per_layer();
  return m;
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--tiny") {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      value = argv[++i];
    }
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper-sweep") return make_paper_sweep();
  if (name == "cache-policies") return make_cache_policies();
  if (name == "serve-mix") return make_serve_mix();
  throw std::invalid_argument("unknown workload " + name +
                              " (paper-sweep, cache-policies, serve-mix)");
}

double peak_rss_mb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Per-layer host times from the spans: each span's self time is summed
/// into "<name>_s" (and "<name>_s.<key>") within its setup rep or pass, and
/// a layer's value is the median over the reps or passes it appears in.
std::map<std::string, double> span_metrics(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  const std::vector<double> self = tracer.self_times();
  std::map<std::string, std::map<std::size_t, double>> per_root;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.parent == Tracer::kNone) continue;
    per_root[s.name + "_s"][s.root] += self[i];
    if (!s.key.empty()) per_root[s.name + "_s." + s.key][s.root] += self[i];
  }
  std::map<std::string, double> out;
  for (const auto& [name, roots] : per_root) {
    std::vector<double> v;
    for (const auto& [root, t] : roots) v.push_back(t);
    out[name] = median(v);
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const MetricList& names, const std::map<std::string, double>& values) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = values.find(names[i].first);
    const double v = it == values.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);  // run marked failed
    line += (i == 0 ? "\"" : ", \"") + names[i].first + "\": {\"value\": " + buf +
            ", \"unit\": \"" + names[i].second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run(const Options& opt) {
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  Tracer tracer(opt.trace);
  Ctx ctx(tracer, opt);

  const int setup_reps = opt.tiny ? 2 : 3;
  std::vector<double> setup_times;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    Scope root(tracer, "setup", opt.workload, "setup" + std::to_string(rep));
    workload->setup(ctx);
    setup_times.push_back(seconds_since(t0));
  }

  std::map<std::string, double> first_modeled;
  std::map<std::string, std::vector<double>> host_samples;
  std::vector<double> plain_s, traced_s;
  double measured_s = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 0;
    tracer.set_enabled(traced);
    ctx.check = pass == 0;
    PassOut out;
    const auto t0 = std::chrono::steady_clock::now();
    {
      Scope root(tracer, "pass", opt.workload, "pass" + std::to_string(pass));
      workload->pass(ctx, out);
    }
    const double pass_s = seconds_since(t0);
    (traced ? traced_s : plain_s).push_back(pass_s);
    measured_s += pass_s;
    {
      Scope root(tracer, "check", opt.workload, "check" + std::to_string(pass));
      ctx.run_checks();
    }
    if (pass == 0) {
      first_modeled = out.modeled;
    } else if (out.modeled != first_modeled) {
      for (const auto& [k, v] : out.modeled) {
        const auto it = first_modeled.find(k);
        if (it == first_modeled.end() || it->second != v) {
          ctx.fail("pass " + std::to_string(pass) + " changed modeled " + k);
        }
      }
    }
    for (const auto& [k, v] : out.host) host_samples[k].push_back(v);
    // The tracing overhead compares medians of at least two traced and two
    // untraced passes, so one disturbed pass cannot decide its sign.
    const std::size_t min_each = opt.trace ? 2 : 0;
    const bool enough = !plain_s.empty() && plain_s.size() >= min_each &&
                        traced_s.size() >= min_each;
    if (enough && measured_s >= opt.seconds) break;
  }
  tracer.set_enabled(false);

  std::map<std::string, double> values = first_modeled;
  for (const auto& [k, v] : host_samples) values[k] = median(v);
  values["setup_s"] = median(setup_times);
  values["sweep_s"] = median(plain_s);
  values["peak_rss_mb"] = peak_rss_mb();
  const double error_rate =
      ctx.attempted == 0 ? 1.0
                         : static_cast<double>(ctx.failed) / static_cast<double>(ctx.attempted);
  values["error_rate"] = error_rate;
  if (opt.trace) {
    for (const auto& [k, v] : span_metrics(tracer)) values[k] = v;
    values["trace.overhead_s"] = median(traced_s) - median(plain_s);
  }

  // Human-readable report: every number the run produced, including those
  // that apply to this workload only.
  std::printf("workload %s seed %llu: %zu setups, %zu untraced + %zu traced passes\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              setup_times.size(), plain_s.size(), traced_s.size());
  for (const auto& [k, v] : values) std::printf("  %-44s %.6g\n", k.c_str(), v);
  std::printf("  setup times:");
  for (double t : setup_times) std::printf(" %.3f", t);
  std::printf("\n  untraced passes:");
  for (double t : plain_s) std::printf(" %.3f", t);
  std::printf("\n  traced passes:");
  for (double t : traced_s) std::printf(" %.3f", t);
  std::printf("\n");

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream f(opt.trace_out);
    f << tracer.chrome_json();
    if (!f) throw std::runtime_error("cannot write " + opt.trace_out);
  }
  for (const auto& [k, v] : values) {
    if (!std::isfinite(v)) ctx.fail("metric " + k + " is not finite");
  }
  const bool correct = ctx.failed == 0 && ctx.attempted > 0;
  print_result(correct, ctx.attempted, ctx.failed,
               opt.trace ? per_layer_metrics() : end_to_end_metrics(), values);
  return 0;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over (seed, tag): distinct tags give unrelated seeds.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double rel_error(const gnnie::Matrix& got, const gnnie::Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return INFINITY;
  double scale = 0.0;
  for (float v : want.data()) scale = std::max(scale, static_cast<double>(std::fabs(v)));
  const double diff = gnnie::Matrix::max_abs_diff(got, want);
  return scale == 0.0 ? diff : diff / scale;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool large_dataset(const std::string& short_name) {
  return gnnie::spec_by_short_name(short_name).vertices > 10000;
}

std::vector<DatasetScale> sweep_datasets(bool tiny) {
  if (tiny) return {{"CR", 0.2}, {"CS", 0.2}, {"PB", 0.05}, {"PPI", 0.01}, {"RD", 0.002}};
  return {{"CR", 1.0}, {"CS", 1.0}, {"PB", 1.0}, {"PPI", 0.05}, {"RD", 0.02}};
}

std::string rho_label(double rho) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "rho%.1f", rho);
  return buf;
}

const std::vector<double>& serve_load_grid() {
  static const std::vector<double> grid = {0.5, 0.7, 0.9, 1.1, 1.3};
  return grid;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
