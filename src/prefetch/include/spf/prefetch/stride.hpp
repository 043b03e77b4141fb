// IP-stride prefetcher modelling Intel's DPL (Data Prefetch Logic).
//
// A direct-mapped table indexed by load-site id tracks the last address and
// last stride per site with a saturating confidence counter. Once confidence
// reaches the threshold, the prefetcher runs `degree` strides ahead.
#pragma once

#include <cstdint>
#include <vector>

#include "spf/prefetch/prefetcher.hpp"

namespace spf {

struct StrideConfig {
  std::uint32_t table_entries = 256;
  /// Confidence needed before issuing (2-bit saturating counter).
  std::uint32_t threshold = 2;
  std::uint32_t max_confidence = 3;
  /// How many strides ahead to prefetch once confident (at most
  /// kMaxPrefetchDegree).
  std::uint32_t degree = 2;
  std::uint32_t line_bytes = 64;
};

class StridePrefetcher {
 public:
  explicit StridePrefetcher(const StrideConfig& config);

  /// Observe one access and write its candidate lines to `out`, which must
  /// hold config.degree lines. Returns how many were written.
  std::uint32_t observe_into(const PrefetchObservation& obs, LineAddr* out);

  void reset();

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  struct Entry {
    SiteId site = 0;
    bool valid = false;
    Addr last_addr = 0;
    std::int64_t stride = 0;
    std::uint32_t confidence = 0;
  };

  StrideConfig config_;
  std::uint32_t line_shift_;
  std::vector<Entry> table_;
  std::uint64_t issued_ = 0;
};

// Defined here (not stride.cpp) so per-access callers inline the table
// update instead of paying an out-of-line call.
inline std::uint32_t StridePrefetcher::observe_into(const PrefetchObservation& obs,
                                                    LineAddr* out) {
  Entry& e = table_[obs.site & (config_.table_entries - 1)];
  if (!e.valid || e.site != obs.site) {
    e = Entry{.site = obs.site, .valid = true, .last_addr = obs.addr};
    return 0;
  }
  const auto stride = static_cast<std::int64_t>(obs.addr) -
                      static_cast<std::int64_t>(e.last_addr);
  if (stride == 0) return 0;  // same address: no trend information
  if (stride == e.stride) {
    if (e.confidence < config_.max_confidence) ++e.confidence;
  } else {
    e.stride = stride;
    e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
  }
  e.last_addr = obs.addr;
  if (e.confidence < config_.threshold) return 0;

  std::uint32_t n = 0;
  for (std::uint32_t d = 1; d <= config_.degree; ++d) {
    const auto target = static_cast<std::int64_t>(obs.addr) +
                        e.stride * static_cast<std::int64_t>(d);
    if (target < 0) break;
    const LineAddr line = static_cast<Addr>(target) >> line_shift_;
    if (line != (obs.addr >> line_shift_)) out[n++] = line;
  }
  issued_ += n;
  return n;
}

}  // namespace spf
