#include "mem/hbm.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace gnnie {

double HbmConfig::burst_cycles() const {
  const double bytes_per_cycle_per_channel =
      peak_bandwidth_bytes_per_s / static_cast<double>(channels) / clock_hz;
  return static_cast<double>(burst_bytes) / bytes_per_cycle_per_channel;
}

HbmModel::HbmModel(HbmConfig config) : config_(config), burst_cycles_(config.burst_cycles()) {
  GNNIE_REQUIRE(config_.channels > 0 && config_.banks_per_channel > 0, "need channels/banks");
  GNNIE_REQUIRE(config_.row_bytes % config_.burst_bytes == 0,
                "row size must be a multiple of the burst size");
  banks_.resize(static_cast<std::size_t>(config_.channels) * config_.banks_per_channel);
  channel_busy_.assign(config_.channels, 0.0);
  last_channel_burst_.assign(static_cast<std::size_t>(config_.channels) * kStreamSlots,
                             ~0ull);
}

HbmStats& HbmStats::operator+=(const HbmStats& other) {
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  bursts += other.bursts;
  row_hits += other.row_hits;
  row_misses += other.row_misses;
  for (std::size_t c = 0; c < kMemClientCount; ++c) client_bytes[c] += other.client_bytes[c];
  accesses += other.accesses;
  return *this;
}

void HbmModel::begin_epoch() { std::fill(channel_busy_.begin(), channel_busy_.end(), 0.0); }

void HbmModel::access(std::uint64_t addr, Bytes bytes, bool write, MemClient client) {
  if (bytes == 0) return;
  ++stats_.accesses;
  const std::uint64_t first_burst = addr / config_.burst_bytes;
  const std::uint64_t last_burst = (addr + bytes - 1) / config_.burst_bytes;
  const std::uint64_t burst_count = last_burst - first_burst + 1;
  const Bytes moved = burst_count * config_.burst_bytes;

  (write ? stats_.bytes_written : stats_.bytes_read) += moved;
  stats_.client_bytes[static_cast<std::size_t>(client)] += moved;
  stats_.bursts += burst_count;

  // Burst-granularity channel interleave; the address folds within the
  // channel so sequential streams stay sequential per channel. The walk
  // keeps channel, per-channel burst, row, position in row and bank as
  // running counters: burst b sits on channel b % channels at per-channel
  // burst b / channels, in row (b / channels) / bursts_per_row, on bank
  // row % banks_per_channel.
  const std::uint32_t channels = config_.channels;
  const std::uint32_t banks = config_.banks_per_channel;
  const std::uint32_t bursts_per_row = config_.row_bytes / config_.burst_bytes;
  auto channel = static_cast<std::uint32_t>(first_burst % channels);
  std::uint64_t channel_burst = first_burst / channels;
  std::uint64_t row = channel_burst / bursts_per_row;
  auto in_row = static_cast<std::uint32_t>(channel_burst % bursts_per_row);
  auto bank = static_cast<std::uint32_t>(row % banks);
  // Reads and writes occupy separate scheduler queues (write buffering),
  // so they form separate streams as well.
  const std::size_t region = std::min<std::uint64_t>(addr >> 36, kStreamSlots / 2 - 1);
  const std::size_t stream_offset = region * 2 + (write ? 1 : 0);
  for (std::uint64_t left = burst_count; left > 0; --left) {
    Bank& state = banks_[static_cast<std::size_t>(channel) * banks + bank];
    std::uint64_t& last = last_channel_burst_[channel * kStreamSlots + stream_offset];
    const bool streaming = channel_burst == last + 1;
    last = channel_burst;
    double service = burst_cycles_;
    if (state.open_row == row) {
      ++stats_.row_hits;
    } else {
      ++stats_.row_misses;
      state.open_row = row;
      // A streaming pattern activates the next row (in another bank) while
      // the current one transfers; a jump pays the full activate+precharge.
      service += streaming ? config_.streaming_miss_penalty : config_.row_miss_penalty;
    }
    channel_busy_[channel] += service;

    if (++channel == channels) {
      channel = 0;
      ++channel_burst;
      if (++in_row == bursts_per_row) {
        in_row = 0;
        ++row;
        if (++bank == banks) bank = 0;
      }
    }
  }
}

Cycles HbmModel::epoch_cycles() const {
  const double worst = *std::max_element(channel_busy_.begin(), channel_busy_.end());
  return static_cast<Cycles>(std::llround(std::ceil(worst)));
}

Joules HbmModel::energy() const {
  const double bits = static_cast<double>(stats_.bytes_read + stats_.bytes_written) * 8.0;
  return bits * config_.energy_pj_per_bit * 1e-12;
}

}  // namespace gnnie
