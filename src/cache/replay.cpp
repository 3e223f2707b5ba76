#include "cache/replay.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace gnnie::cache {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Per-vertex buffer state of the pinned-LRU replay.
enum : std::uint8_t { kAbsent = 0, kCached = 1, kPinned = 2 };

}  // namespace

BeladyBuffer::BeladyBuffer(const AccessTrace& trace, std::uint64_t capacity)
    : capacity_(capacity),
      // At most min(capacity, |V|) entries are live.
      compact_at_(2 * std::min<std::uint64_t>(capacity, trace.vertex_count) + 64),
      next_use_(trace.accesses.size()),
      due_(trace.vertex_count, kNever),
      in_cache_(trace.vertex_count, 0) {
  GNNIE_REQUIRE(capacity > 0, "replay needs a positive capacity");
  // One reverse pass: next_use_[i] is the position of the next access to
  // accesses[i] after i (kNever when i is the last), and due_ ends up at
  // each vertex's first access.
  for (std::size_t i = trace.accesses.size(); i-- > 0;) {
    const VertexId v = trace.accesses[i];
    next_use_[i] = due_[v];
    due_[v] = i;
  }
  heap_.reserve(compact_at_ + 1);
}

bool BeladyBuffer::access(VertexId v) {
  const std::uint64_t i = position_++;
  GNNIE_ASSERT(v < due_.size() && due_[v] == i, "access does not follow the trace");
  const std::uint64_t next = next_use_[i];
  due_[v] = next;
  const bool hit = in_cache_[v] != 0;
  if (!hit) {
    if (cached_ >= capacity_) {
      // Stale keys are ≤ i < every live key, so the top is live.
      std::pop_heap(heap_.begin(), heap_.end());
      in_cache_[heap_.back().second] = 0;
      heap_.pop_back();
    } else {
      ++cached_;
    }
    in_cache_[v] = 1;
  }
  // A hit leaves the old entry (key i) behind as a stale entry.
  heap_.emplace_back(next, v);
  std::push_heap(heap_.begin(), heap_.end());
  if (heap_.size() > compact_at_) {
    // Live keys are > i, stale ones ≤ i.
    std::erase_if(heap_, [i](const auto& e) { return e.first <= i; });
    std::make_heap(heap_.begin(), heap_.end());
  }
  return hit;
}

ReplayResult replay_lru(const AccessTrace& trace, std::uint64_t capacity) {
  return replay_pinned_lru(trace, capacity, {});
}

ReplayResult replay_belady(const AccessTrace& trace, std::uint64_t capacity) {
  BeladyBuffer buffer(trace, capacity);
  ReplayResult r;
  r.accesses = trace.accesses.size();
  for (VertexId v : trace.accesses) r.fetches += buffer.access(v) ? 0 : 1;
  return r;
}

ReplayResult replay_pinned_lru(const AccessTrace& trace, std::uint64_t capacity,
                               std::span<const VertexId> pinned) {
  GNNIE_REQUIRE(capacity > 0, "replay needs a positive capacity");
  GNNIE_REQUIRE(pinned.size() <= capacity, "pinned region exceeds the capacity");
  ReplayResult r;
  r.accesses = trace.accesses.size();
  const VertexId v_count = trace.vertex_count;
  std::vector<std::uint8_t> state(v_count, kAbsent);
  for (VertexId v : pinned) {
    GNNIE_REQUIRE(v < v_count, "pinned vertex out of range");
    GNNIE_REQUIRE(state[v] != kPinned, "pinned vertices must be distinct");
    state[v] = kPinned;
    ++r.fetches;  // the preload is a real DRAM fetch
  }
  const std::uint64_t lru_capacity = capacity - pinned.size();
  if (lru_capacity == 0) {
    // Nothing can be retained: every unpinned access fetches.
    for (VertexId v : trace.accesses) r.fetches += state[v] == kPinned ? 0 : 1;
    return r;
  }
  // Intrusive LRU list over vertex ids, v_count as the sentinel (the same
  // structure the on-demand engine uses, so the two cannot drift).
  std::vector<VertexId> prev(static_cast<std::size_t>(v_count) + 1, v_count);
  std::vector<VertexId> next(static_cast<std::size_t>(v_count) + 1, v_count);
  std::uint64_t cached = 0;
  auto unlink = [&](VertexId v) {
    next[prev[v]] = next[v];
    prev[next[v]] = prev[v];
  };
  auto push_front = [&](VertexId v) {
    next[v] = next[v_count];
    prev[v] = v_count;
    prev[next[v_count]] = v;
    next[v_count] = v;
  };
  for (VertexId v : trace.accesses) {
    const std::uint8_t s = state[v];
    if (s == kPinned) continue;  // resident for the whole run
    if (s == kCached) {
      unlink(v);
      push_front(v);
      continue;
    }
    ++r.fetches;
    if (cached >= lru_capacity) {
      const VertexId victim = prev[v_count];
      unlink(victim);
      state[victim] = kAbsent;
      --cached;
    }
    state[v] = kCached;
    push_front(v);
    ++cached;
  }
  return r;
}

}  // namespace gnnie::cache
