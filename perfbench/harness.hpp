// Shared pieces of the benchmark program: options, the per-pass context the
// workloads report into, and the workload interface.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/matrix.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke scale: every workload on tiny inputs, for the benchmark's own
  /// tests. Frozen serve-mix constants do not apply at this scale.
  bool tiny = false;
  std::string trace_out;  ///< Chrome trace file written when tracing
};

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// What one pass of the measured phase reports back. `modeled` holds numbers
/// of the modeled accelerator and cluster (and other counts that depend only
/// on the seed); they must repeat exactly on every pass. `host` holds
/// wall-clock numbers the workload measured itself.
struct PassOut {
  std::map<std::string, double> modeled;
  std::map<std::string, double> host;
};

/// Per-pass context handed to a workload.
class Ctx {
 public:
  Ctx(Tracer& tracer, const Options& opt) : tracer(tracer), opt(opt) {}

  Tracer& tracer;
  const Options& opt;
  /// This pass checks the outputs (the first pass only).
  bool check = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Runs one operation: an exception or a false return counts it failed.
  template <typename F>
  void attempt(const std::string& what, F&& op) {
    ++attempted;
    if (!succeeds(what, op)) ++failed;
  }

  /// Queues a correctness check of an operation already attempted. Checks
  /// run after the pass, outside sweep_s, so they neither add to its time
  /// nor disturb the caches and heap of the work it measures.
  void defer_check(std::string what, std::function<bool()> check) {
    checks_.push_back({std::move(what), std::move(check)});
  }

  /// Runs and clears the queued checks; each one that fails counts its
  /// operation failed.
  void run_checks() {
    for (auto& [what, check] : checks_) {
      if (!succeeds(what, check)) ++failed;
    }
    checks_.clear();
  }

  /// Reports a failed check that is not tied to one operation's result.
  void fail(const std::string& what) {
    std::fprintf(stderr, "FAILED %s\n", what.c_str());
    ++failed;
  }

 private:
  template <typename F>
  static bool succeeds(const std::string& what, F& f) {
    try {
      if (f()) return true;
      std::fprintf(stderr, "FAILED %s\n", what.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), e.what());
    }
    return false;
  }

  std::vector<std::pair<std::string, std::function<bool()>>> checks_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Synthesizes every input from the seed (timed as setup_s). May be
  /// called several times; each call replaces the previous inputs.
  virtual void setup(Ctx& ctx) = 0;
  /// One pass of the measured phase over the current inputs.
  virtual void pass(Ctx& ctx, PassOut& out) = 0;
};

std::unique_ptr<Workload> make_paper_sweep();
std::unique_ptr<Workload> make_cache_policies();
std::unique_ptr<Workload> make_serve_mix();

/// Seed for one input, derived from the workload seed and a stream tag.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// max|got − want| ÷ max|want|: the output check's relative error.
double rel_error(const gnnie::Matrix& got, const gnnie::Matrix& want);

double geomean(const std::vector<double>& values);
double median(std::vector<double> values);

/// The relative tolerance every functional check uses. It is relative to
/// the output's magnitude because unnormalized aggregations (GINConv) grow
/// with degree, and on the large graphs float summation order alone moves
/// absolute differences far past any fixed absolute tolerance.
inline constexpr double kRelTolerance = 1e-4;

/// Accelerator designs by dataset, as the paper's figures pick them: the
/// large-buffer configuration for graphs above 10k vertices (at full size).
bool large_dataset(const std::string& short_name);

/// Names of the datasets every kernel workload sweeps and their scales.
struct DatasetScale {
  const char* name;
  double scale;
};
std::vector<DatasetScale> sweep_datasets(bool tiny);

/// Load-point label, e.g. 0.9 -> "rho0.9".
std::string rho_label(double rho);

/// The serve-mix load grid (nominal utilization against the frozen mean
/// service time).
const std::vector<double>& serve_load_grid();

}  // namespace perfbench
