#include "cache/replay.hpp"

#include <algorithm>
#include <limits>

#include "common/require.hpp"

namespace gnnie::cache {
namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Per-vertex state of PinnedLruBuffer.
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

PinnedLruBuffer::PinnedLruBuffer(VertexId vertex_count, std::uint64_t capacity,
                                 std::span<const VertexId> pinned)
    : sentinel_(vertex_count),
      state_(vertex_count, kAbsent),
      prev_(static_cast<std::size_t>(vertex_count) + 1, vertex_count),
      next_(static_cast<std::size_t>(vertex_count) + 1, vertex_count) {
  GNNIE_REQUIRE(capacity > 0, "replay needs a positive capacity");
  GNNIE_REQUIRE(pinned.size() <= capacity, "pinned region exceeds the capacity");
  fill_capacity_ = capacity - pinned.size();
  for (VertexId v : pinned) {
    GNNIE_REQUIRE(v < vertex_count, "pinned vertex out of range");
    GNNIE_REQUIRE(state_[v] != kPinned, "pinned vertices must be distinct");
    state_[v] = kPinned;
  }
}

void PinnedLruBuffer::unlink(VertexId v) {
  next_[prev_[v]] = next_[v];
  prev_[next_[v]] = prev_[v];
}

void PinnedLruBuffer::push_front(VertexId v) {
  next_[v] = next_[sentinel_];
  prev_[v] = sentinel_;
  prev_[next_[sentinel_]] = v;
  next_[sentinel_] = v;
}

bool PinnedLruBuffer::access(VertexId v) {
  const std::uint8_t s = state_[v];
  if (s == kPinned) return true;  // resident for the whole run
  if (s == kCached) {
    unlink(v);
    push_front(v);
    return true;
  }
  if (fill_capacity_ == 0) return false;  // no fill region: nothing retained
  if (cached_ >= fill_capacity_) {
    const VertexId victim = prev_[sentinel_];  // tail = least recently used
    unlink(victim);
    state_[victim] = kAbsent;
    --cached_;
  }
  state_[v] = kCached;
  push_front(v);
  ++cached_;
  return false;
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
  PinnedLruBuffer buffer(trace.vertex_count, capacity, pinned);
  ReplayResult r;
  r.accesses = trace.accesses.size();
  r.fetches = pinned.size();  // each preload is a real DRAM fetch
  for (VertexId v : trace.accesses) r.fetches += buffer.access(v) ? 0 : 1;
  return r;
}

}  // namespace gnnie::cache
