#include "cache/alloc.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "graph/reorder.hpp"

namespace gnnie::cache {
namespace {

/// The first min(count, |order|) entries of a layout order — the prefix a
/// static cache pins.
std::span<const VertexId> order_prefix(const std::vector<VertexId>& order,
                                       std::uint64_t count) {
  return std::span<const VertexId>(order.data(),
                                   std::min<std::uint64_t>(count, order.size()));
}

}  // namespace

DualSplit best_dual_split(const AccessTrace& trace, std::uint64_t capacity, const Csr& g) {
  GNNIE_REQUIRE(capacity > 0, "split search needs a positive capacity");
  // Exact degree order, not the binned layout order: the pinned region
  // should hold the hottest vertices exactly (a vertex's access frequency
  // in the trace is 1 + degree), and the binning's within-bin id tie-break
  // would pin boundary-bin vertices by id rather than by heat.
  const std::vector<VertexId> hubs = exact_degree_order(g);
  const std::uint64_t max_pinned = std::min<std::uint64_t>(capacity, hubs.size());
  DualSplit best;
  bool have_best = false;
  std::uint64_t previous = 0;
  for (int step = 0; step <= 8; ++step) {
    const std::uint64_t pinned = max_pinned * static_cast<std::uint64_t>(step) / 8;
    if (have_best && pinned == previous) continue;  // tiny capacities collapse grid points
    previous = pinned;
    ReplayResult r = replay_pinned_lru(trace, capacity, order_prefix(hubs, pinned));
    // Strict improvement only: ties keep the smaller pinned region.
    if (!have_best || r.fetches < best.result.fetches) {
      best.pinned = pinned;
      best.result = r;
      have_best = true;
    }
  }
  return best;
}

WorkloadCacheAnalysis analyze_workload(const Csr& g, std::uint64_t capacity) {
  WorkloadCacheAnalysis a;
  a.capacity = capacity;
  const AccessTrace trace = AccessTrace::from_graph(g);
  a.trace_accesses = trace.accesses.size();
  a.oracle = replay_belady(trace, capacity);
  for (CachePolicyKind kind : all_cache_policy_kinds()) {
    WorkloadCacheAnalysis::PolicyEntry entry;
    entry.kind = kind;
    switch (kind) {
      case CachePolicyKind::kBeladyOracle:
        entry.replay = a.oracle;  // the oracle's row is the oracle replay itself
        break;
      case CachePolicyKind::kOnDemand:
        entry.replay = replay_lru(trace, capacity);
        break;
      case CachePolicyKind::kDualCache: {
        const DualSplit split = best_dual_split(trace, capacity, g);
        entry.replay = split.result;
        a.dual_pinned = split.pinned;
        break;
      }
      case CachePolicyKind::kDegreeAware:
      case CachePolicyKind::kIdOrder:
      case CachePolicyKind::kSetAware: {
        const std::vector<VertexId> order = CachePolicy::make(kind)->layout_order(g);
        entry.replay = replay_pinned_lru(trace, capacity, order_prefix(order, capacity));
        break;
      }
    }
    entry.fraction_of_oracle = a.oracle.hit_rate() > 0.0
                                   ? entry.replay.hit_rate() / a.oracle.hit_rate()
                                   : 1.0;
    a.policies.push_back(entry);
  }
  return a;
}

}  // namespace gnnie::cache
