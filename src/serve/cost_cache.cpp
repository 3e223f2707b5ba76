#include "serve/cost_cache.hpp"

#include "common/rng.hpp"

namespace gnnie::serve {
namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two

}  // namespace

ServiceCostCache::ServiceCostCache() : slots_(kInitialSlots) {}

std::size_t ServiceCostCache::hash(const Key& key) {
  // splitmix64 is cheap and well-mixed for pointer-derived keys.
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(key.config));
  h ^= splitmix64(reinterpret_cast<std::uintptr_t>(key.plan));
  h ^= splitmix64(reinterpret_cast<std::uintptr_t>(key.features) + 0x2545f4914f6cdd1dULL);
  return static_cast<std::size_t>(h);
}

const CostEntry* ServiceCostCache::find_locked(const Key& key) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.index_plus_one == 0) return nullptr;
    if (slot.key == key) return &entries_[slot.index_plus_one - 1];
  }
}

void ServiceCostCache::insert_locked(const Key& key, std::size_t index) {
  // Grow at 2/3 load so probe chains stay short.
  if ((entries_.size() + 1) * 3 > slots_.size() * 2) grow_locked();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash(key) & mask;
  while (slots_[i].index_plus_one != 0) i = (i + 1) & mask;
  slots_[i].key = key;
  slots_[i].index_plus_one = static_cast<std::uint32_t>(index + 1);
}

void ServiceCostCache::grow_locked() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index_plus_one == 0) continue;
    std::size_t i = hash(slot.key) & mask;
    while (slots_[i].index_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace gnnie::serve
