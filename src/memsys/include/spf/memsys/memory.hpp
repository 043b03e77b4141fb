// Main-memory timing model: fixed service latency plus a channel that can
// start at most one line transfer every `issue_interval` cycles. The
// serialization makes prefetch traffic contend with demand traffic for
// bandwidth — one of the two costs of early prefetching the paper calls out
// ("wastes precious bandwidth and limits the effectiveness of SP").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "spf/mem/types.hpp"

namespace spf {

struct MemoryConfig {
  /// DRAM service latency (cycles from transfer start to data usable). The
  /// paper's Core 2 testbed sees ~300 cycles to DRAM.
  Cycle service_latency = 300;
  /// Minimum cycles between transfer starts (inverse bandwidth). 64B line
  /// every 8 cycles at ~2.4 GHz approximates a ~19 GB/s channel.
  Cycle issue_interval = 8;
};

struct MemoryStats {
  std::uint64_t requests = 0;
  std::uint64_t requests_by_origin[3] = {0, 0, 0};  // indexed by FillOrigin
  /// Dirty-eviction writebacks (consume channel slots, nobody waits on them).
  std::uint64_t writebacks = 0;
  /// Sum of cycles requests waited for the channel (contention).
  std::uint64_t total_queue_delay = 0;
  /// Cycles the channel spent transferring.
  std::uint64_t busy_cycles = 0;

  [[nodiscard]] double mean_queue_delay() const noexcept {
    return requests ? static_cast<double>(total_queue_delay) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

class MemoryController {
 public:
  explicit MemoryController(const MemoryConfig& config) : config_(config) {}

  [[nodiscard]] const MemoryConfig& config() const noexcept { return config_; }
  [[nodiscard]] const MemoryStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = MemoryStats{}; }

  /// As-if-freshly-constructed with `config` (ExperimentContext reuse seam).
  void reset(const MemoryConfig& config) noexcept {
    config_ = config;
    next_start_ = 0;
    stats_ = MemoryStats{};
  }

  /// Issue a line fetch at time `now`; returns the completion (fill) time.
  /// Monotonic in issue order: each transfer starts no earlier than
  /// `issue_interval` after the previous one started. Inline: it runs on
  /// every L2 miss and prefetch issue.
  Cycle issue(Cycle now, FillOrigin origin) noexcept {
    const Cycle start = std::max(now, next_start_);
    next_start_ = start + config_.issue_interval;
    ++stats_.requests;
    ++stats_.requests_by_origin[static_cast<std::size_t>(origin)];
    stats_.total_queue_delay += start - now;
    stats_.busy_cycles += config_.issue_interval;
    return start + config_.service_latency;
  }

  /// Queue a dirty-line writeback: occupies one channel slot (delaying later
  /// fills) but completes asynchronously — no one waits on it.
  void writeback(Cycle now) noexcept {
    const Cycle start = std::max(now, next_start_);
    next_start_ = start + config_.issue_interval;
    ++stats_.writebacks;
    stats_.busy_cycles += config_.issue_interval;
  }

  /// When the channel could start another transfer.
  [[nodiscard]] Cycle next_free() const noexcept { return next_start_; }

 private:
  MemoryConfig config_;
  Cycle next_start_ = 0;
  MemoryStats stats_;
};

}  // namespace spf
