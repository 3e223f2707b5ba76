// HBM 2.0 DRAM model (Ramulator substitute — see DESIGN.md §1).
//
// The model captures the first-order behaviour GNNIE's caching argument
// rests on: sequential streams ride open row buffers at near-peak bandwidth,
// while fine-grained random accesses pay an activate/precharge penalty and
// waste burst granularity. Addresses are interleaved across channels at
// burst granularity; each bank tracks its open row (open-page policy).
//
// Cycle accounting: every access adds busy time to its channel; an epoch's
// memory time is the maximum channel busy time since begin_epoch() —
// channels work in parallel, requests on one channel serialize.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"

namespace gnnie {

struct HbmConfig {
  double peak_bandwidth_bytes_per_s = 256.0e9;  ///< §VIII-A: 256 GB/s
  double clock_hz = 1.3e9;                      ///< accelerator clock (cycles returned in it)
  std::uint32_t channels = 8;
  std::uint32_t banks_per_channel = 16;
  std::uint32_t row_bytes = 2048;
  std::uint32_t burst_bytes = 64;
  /// Extra cycles charged to the channel when a burst misses its bank's
  /// open row (activate + precharge, in accelerator cycles) after a
  /// non-sequential jump.
  double row_miss_penalty = 24.0;
  /// Residual miss cost on a *streaming* pattern (consecutive bursts):
  /// consecutive rows land in different banks, so the next activation
  /// overlaps with the current transfer and is almost free.
  double streaming_miss_penalty = 2.0;
  double energy_pj_per_bit = 3.97;  ///< [26]

  /// Transfer time of one burst on one channel, in accelerator cycles.
  double burst_cycles() const;
};

/// Which on-chip buffer a DRAM transaction serves — the paper's energy
/// breakdown (Fig. 14) reports DRAM traffic per buffer.
enum class MemClient { kInput = 0, kOutput = 1, kWeight = 2 };
inline constexpr std::size_t kMemClientCount = 3;

struct HbmStats {
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t bursts = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::array<Bytes, kMemClientCount> client_bytes{};  // read + write per client
  std::uint64_t accesses = 0;

  double row_hit_rate() const {
    const std::uint64_t total = row_hits + row_misses;
    return total == 0 ? 0.0 : static_cast<double>(row_hits) / static_cast<double>(total);
  }

  /// Accumulates another run's stats (batch-report aggregation).
  HbmStats& operator+=(const HbmStats& other);
};

class HbmModel {
 public:
  explicit HbmModel(HbmConfig config = {});

  const HbmConfig& config() const { return config_; }

  /// Starts a new overlap window; epoch_cycles() measures from here.
  void begin_epoch();

  /// One logical access: `bytes` starting at byte address `addr`.
  /// Rounded up to burst granularity (fine-grained random access wastes
  /// bandwidth exactly as on real DRAM).
  void access(std::uint64_t addr, Bytes bytes, bool write, MemClient client);

  /// Busy cycles of the most-loaded channel since begin_epoch().
  Cycles epoch_cycles() const;

  /// Per-channel busy cycles since begin_epoch(); epoch_cycles() is the
  /// ceiling of their maximum.
  std::span<const double> channel_busy() const { return channel_busy_; }

  /// Lifetime totals (not reset by begin_epoch).
  const HbmStats& stats() const { return stats_; }

  /// DRAM transfer energy: pJ/bit over all bytes moved (burst-granular).
  Joules energy() const;

 private:
  struct Bank {
    std::uint64_t open_row = ~0ull;
  };

  HbmConfig config_;
  double burst_cycles_;               // config_.burst_cycles(), fixed per model
  std::vector<Bank> banks_;           // channels × banks_per_channel
  std::vector<double> channel_busy_;  // cycles within current epoch
  /// Streaming detection per (channel, address region): the memory-access
  /// scheduler (§III) batches requests per stream, so interleaved traffic
  /// from different regions (properties, adjacency, outputs …) does not
  /// break each stream's row locality. Regions follow DramLayout's 2^36
  /// spacing.
  static constexpr std::size_t kStreamSlots = 16;  // 8 regions × {read, write}
  std::vector<std::uint64_t> last_channel_burst_;
  HbmStats stats_;
};

}  // namespace gnnie
