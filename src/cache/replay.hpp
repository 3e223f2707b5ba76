// Trace-replay cache simulators: the hit-rate yardstick of the
// cache-allocation subsystem.
//
// Every simulator serves the same AccessTrace with an input buffer of
// `capacity` vertices and counts *fetches* — every load of a vertex's
// working set into the buffer, whether on demand (a miss) or as a preload
// (pinned hub regions are charged their fill). Counting fetches rather
// than "misses" is what makes the Belady bound airtight: by the classic
// demand-paging optimality result, no scheme serving a fixed trace with a
// fixed capacity — pinning, prefetching, or any replacement rule — needs
// fewer fetches than Belady's offline-optimal replacement. So
// replay_belady() is a true denominator: every policy's replayed hit rate
// is a fraction ≤ 1 of the oracle's on the same trace.
//
//   * replay_lru        — the on-demand engine's discipline (HyGCN-style).
//   * replay_belady     — offline-optimal (Ginex): evict the cached vertex
//                         whose next use is farthest in the future.
//   * replay_pinned_lru — DCI-style dual cache: a preloaded, never-evicted
//                         hub region plus an LRU fill region over the rest
//                         of the capacity. With |pinned| == capacity this
//                         degenerates to a static cache (the trace-domain
//                         model of the subgraph-machinery layouts: the
//                         buffer holds the layout's hot prefix).
//
// Their buffers, BeladyBuffer and PinnedLruBuffer, are the on-demand engine's
// input buffers too, so engine misses equal replay fetches by construction.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cache/access_trace.hpp"

namespace gnnie::cache {

struct ReplayResult {
  std::uint64_t accesses = 0;  ///< trace length served
  std::uint64_t fetches = 0;   ///< working-set loads (demand misses + preloads)

  /// Fraction of accesses served without a fetch. Preload charges mean a
  /// pathological (tiny-trace) replay can exceed one fetch per access;
  /// real workloads never do.
  double hit_rate() const {
    if (accesses == 0) return 1.0;
    return 1.0 - static_cast<double>(fetches) / static_cast<double>(accesses);
  }
};

/// Belady's offline-optimal input buffer over a known access trace.
///
/// Serve the trace's accesses in order through access(); each returns
/// whether it hit. A miss loads the vertex, first evicting the cached
/// vertex whose next use is farthest away (never-reused vertices first,
/// largest id first among them).
///
/// The cached set lives in a lazy max-heap of (next use, vertex) entries,
/// which replays a next-use-ordered std::set exactly. On a hit at position
/// i the vertex's key is i and every other cached key is greater, so the
/// hit entry is the set's minimum. It stays in the heap as a stale entry
/// with key ≤ i, below every live key, so the top is live whenever an
/// eviction pops it. Stale entries are dropped once the heap passes
/// 2·capacity + 64 entries, which keeps it O(capacity) at O(1) amortized
/// cost per access.
class BeladyBuffer {
 public:
  BeladyBuffer(const AccessTrace& trace, std::uint64_t capacity);

  /// Whether `v` is in the buffer now.
  bool contains(VertexId v) const { return in_cache_[v] != 0; }

  /// Serves the trace's next access, which must be to `v` (checked).
  /// Returns true on a hit; a miss loads `v`.
  bool access(VertexId v);

 private:
  std::uint64_t capacity_;
  std::uint64_t compact_at_;  ///< heap size that triggers dropping stale entries
  std::uint64_t cached_ = 0;
  std::uint64_t position_ = 0;              ///< index of the next access
  std::vector<std::uint64_t> next_use_;     ///< per access: next access to that vertex
  std::vector<std::uint64_t> due_;          ///< per vertex: its next access position
  std::vector<std::uint8_t> in_cache_;      ///< per vertex
  std::vector<std::pair<std::uint64_t, VertexId>> heap_;  ///< (next use, vertex)
};

/// Pinned-LRU input buffer: plain LRU with nothing pinned, the DCI-style
/// dual cache with hubs pinned. `pinned` vertices stay resident and are
/// never evicted; the remaining capacity − |pinned| slots run LRU over an
/// intrusive recency list with `vertex_count` as its sentinel. With a
/// zero-slot fill region every unpinned access misses and nothing is
/// retained.
class PinnedLruBuffer {
 public:
  /// Requires capacity > 0, |pinned| ≤ capacity, and distinct pins in
  /// [0, vertex_count).
  PinnedLruBuffer(VertexId vertex_count, std::uint64_t capacity,
                  std::span<const VertexId> pinned);

  /// Serves an access to `v`. Returns true on a hit; a miss loads `v`
  /// into the fill region (evicting its least recently used vertex).
  bool access(VertexId v);

 private:
  void unlink(VertexId v);
  void push_front(VertexId v);

  VertexId sentinel_;                ///< == vertex_count
  std::uint64_t fill_capacity_ = 0;  ///< capacity − |pinned|
  std::uint64_t cached_ = 0;         ///< vertices in the fill region
  std::vector<std::uint8_t> state_;  ///< per vertex
  std::vector<VertexId> prev_;       ///< recency list, front = most recent
  std::vector<VertexId> next_;
};

/// Plain LRU over the whole capacity: replay_pinned_lru with nothing pinned.
ReplayResult replay_lru(const AccessTrace& trace, std::uint64_t capacity);

ReplayResult replay_belady(const AccessTrace& trace, std::uint64_t capacity);

/// Serves the trace through a PinnedLruBuffer: fetches = |pinned| (each
/// preload is charged one fetch) + misses.
ReplayResult replay_pinned_lru(const AccessTrace& trace, std::uint64_t capacity,
                               std::span<const VertexId> pinned);

}  // namespace gnnie::cache
