// Test-only reference implementations of the hardware prefetcher pair.
//
// Production carries one engine per prefetcher: StreamPrefetcher keeps its
// trackers in fixed arrays and takes its victim from an O(1) recency list,
// each engine writes its candidates into a caller's buffer, and
// CorePrefetchers sorts one observation's candidates in a fixed buffer. This
// header holds the naive counterparts the prefetch property suite pins them
// against, as replay_oracle.hpp does for replay:
//
//   * ReferenceStridePrefetcher — the DPL stride table, appending to a
//     vector;
//   * ReferenceStreamPrefetcher — the streamer with per-tracker vectors and
//     u64 replacement stamps from a clock that ticks once per observation;
//     the victim is the lowest invalid tracker, else the lowest index holding
//     the oldest stamp (spf::min_stamp_index), found by a scan;
//   * ReferenceCorePrefetchers — the two references appending to one vector,
//     then std::sort + std::unique over the observation's tail.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "spf/common/min_stamp.hpp"
#include "spf/prefetch/prefetcher.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"

namespace spf::test {

class ReferenceStridePrefetcher {
 public:
  explicit ReferenceStridePrefetcher(const StrideConfig& config)
      : config_(config),
        line_shift_(static_cast<std::uint32_t>(
            std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
        table_(config.table_entries) {}

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) {
    Entry& e = table_[obs.site & (config_.table_entries - 1)];
    if (!e.valid || e.site != obs.site) {
      e = Entry{.site = obs.site, .valid = true, .last_addr = obs.addr};
      return;
    }
    const auto stride = static_cast<std::int64_t>(obs.addr) -
                        static_cast<std::int64_t>(e.last_addr);
    if (stride == 0) return;
    if (stride == e.stride) {
      if (e.confidence < config_.max_confidence) ++e.confidence;
    } else {
      e.stride = stride;
      e.confidence = e.confidence > 0 ? e.confidence - 1 : 0;
    }
    e.last_addr = obs.addr;
    if (e.confidence < config_.threshold) return;
    for (std::uint32_t d = 1; d <= config_.degree; ++d) {
      const auto target = static_cast<std::int64_t>(obs.addr) +
                          e.stride * static_cast<std::int64_t>(d);
      if (target < 0) break;
      const LineAddr line = static_cast<Addr>(target) >> line_shift_;
      if (line != (obs.addr >> line_shift_)) {
        out.push_back(line);
        ++issued_;
      }
    }
  }

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

class ReferenceStreamPrefetcher {
 public:
  explicit ReferenceStreamPrefetcher(const StreamConfig& config)
      : config_(config),
        line_shift_(static_cast<std::uint32_t>(
            std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
        page_shift_(static_cast<std::uint32_t>(
            std::countr_zero(static_cast<std::uint64_t>(config.page_bytes)))),
        lines_per_page_(config.page_bytes / config.line_bytes),
        pages_(config.streams, 0),
        lru_(config.streams, 0),
        valid_(config.streams, false),
        streams_(config.streams) {}

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) {
    const LineAddr line = obs.addr >> line_shift_;
    const std::uint64_t page = obs.addr >> page_shift_;
    ++clock_;

    std::uint32_t found = kNone;
    for (std::uint32_t i = 0; i < config_.streams; ++i) {
      if (valid_[i] && pages_[i] == page) {
        found = i;
        break;
      }
    }
    if (found == kNone) {
      if (!obs.was_miss) return;
      const std::uint32_t fresh = victim();
      pages_[fresh] = page;
      lru_[fresh] = clock_;
      valid_[fresh] = true;
      streams_[fresh] = Stream{.armed = false,
                               .last_line = line,
                               .sent_until = line,
                               .dir = 1};
      return;
    }
    lru_[found] = clock_;
    Stream& s = streams_[found];

    if (!s.armed) {
      if (!obs.was_miss || line == s.last_line) return;
      s.dir = line > s.last_line ? 1 : -1;
      const LineAddr gap =
          line > s.last_line ? line - s.last_line : s.last_line - line;
      if (gap <= 2) {
        s.armed = true;
        s.last_line = line;
        s.sent_until = line;
      } else {
        s.last_line = line;
      }
      if (!s.armed) return;
    } else {
      s.last_line = line;
    }

    const LineAddr page_first = page << (page_shift_ - line_shift_);
    const LineAddr page_last = page_first + lines_per_page_ - 1;
    std::uint32_t sent = 0;
    while (sent < config_.degree) {
      const std::int64_t ahead =
          s.dir > 0 ? static_cast<std::int64_t>(s.sent_until) -
                          static_cast<std::int64_t>(line)
                    : static_cast<std::int64_t>(line) -
                          static_cast<std::int64_t>(s.sent_until);
      if (ahead >= static_cast<std::int64_t>(config_.distance)) break;
      const std::int64_t next = static_cast<std::int64_t>(s.sent_until) + s.dir;
      if (next < static_cast<std::int64_t>(page_first) ||
          next > static_cast<std::int64_t>(page_last)) {
        break;
      }
      s.sent_until = static_cast<LineAddr>(next);
      out.push_back(s.sent_until);
      ++issued_;
      ++sent;
    }
  }

  void reset() {
    std::fill(pages_.begin(), pages_.end(), 0);
    std::fill(lru_.begin(), lru_.end(), 0);
    std::fill(valid_.begin(), valid_.end(), false);
    std::fill(streams_.begin(), streams_.end(), Stream{});
    clock_ = 0;
    issued_ = 0;
  }

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  struct Stream {
    bool armed = false;
    LineAddr last_line = 0;
    LineAddr sent_until = 0;
    std::int8_t dir = 1;
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t victim() const {
    for (std::uint32_t i = 0; i < config_.streams; ++i) {
      if (!valid_[i]) return i;
    }
    return min_stamp_index(lru_.data(), config_.streams);
  }

  StreamConfig config_;
  std::uint32_t line_shift_;
  std::uint32_t page_shift_;
  std::uint32_t lines_per_page_;
  std::vector<std::uint64_t> pages_;
  std::vector<std::uint64_t> lru_;
  std::vector<bool> valid_;
  std::vector<Stream> streams_;
  std::uint64_t clock_ = 0;
  std::uint64_t issued_ = 0;
};

/// The Core 2 pair at CorePrefetchers' fixed configs.
class ReferenceCorePrefetchers {
 public:
  explicit ReferenceCorePrefetchers(std::uint32_t line_bytes)
      : stride_(StrideConfig{.line_bytes = line_bytes}),
        stream_(StreamConfig{.line_bytes = line_bytes}) {}

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) {
    const std::size_t first = out.size();
    stride_.observe(obs, out);
    stream_.observe(obs, out);
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(first),
                          out.end()),
              out.end());
  }

  [[nodiscard]] const ReferenceStridePrefetcher& stride() const noexcept {
    return stride_;
  }
  [[nodiscard]] const ReferenceStreamPrefetcher& stream() const noexcept {
    return stream_;
  }

 private:
  ReferenceStridePrefetcher stride_;
  ReferenceStreamPrefetcher stream_;
};

}  // namespace spf::test
