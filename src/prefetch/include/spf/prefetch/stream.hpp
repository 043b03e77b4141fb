// Stream prefetcher modelling Intel's L2 "streamer".
//
// Tracks up to `streams` concurrent line-granular streams, each confined to
// one 4 KB page (real streamers do not cross page boundaries because they
// work on physical addresses). Two consecutive misses to adjacent lines in
// the same page arm a stream; while armed, each access at the stream head
// pulls the window `distance` lines ahead.
//
// The page match runs on every observed access, so it works like the cache's
// tag match: the low 16 bits of each tracker's page sit in a packed key array
// (padded to a multiple of 8 keys) beside a validity bitmask, a vector
// compare filters the valid trackers whose key matches, and each candidate
// is verified against its full page. Replacement stamps are packed too, so
// the victim is one branch-free scan; the rest of a tracker's state is read
// only once its page matched.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "spf/common/min_stamp.hpp"
#include "spf/common/simd_match.hpp"
#include "spf/prefetch/prefetcher.hpp"

namespace spf {

struct StreamConfig {
  /// Concurrent stream trackers (Core 2 streamer tracks 8-16).
  std::uint32_t streams = 16;
  /// How many lines ahead of the head to run.
  std::uint32_t distance = 4;
  /// Lines issued per triggering access.
  std::uint32_t degree = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t page_bytes = 4096;
};

class StreamPrefetcher final : public HwPrefetcher {
 public:
  explicit StreamPrefetcher(const StreamConfig& config);

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "streamer"; }

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  enum class State : std::uint8_t { kTraining, kArmed };

  /// Tracker state beside its page and stamp; meaningful only while the
  /// tracker's validity bit is set.
  struct Stream {
    State state = State::kTraining;
    LineAddr last_line = 0;   // last observed line in the stream
    LineAddr sent_until = 0;  // highest (or lowest) line already requested
    std::int8_t dir = 1;      // +1 ascending, -1 descending
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Tracker following `page`, or kNone. Valid pages are unique, so the
  /// lowest match is the only one.
  [[nodiscard]] std::uint32_t find_page(std::uint64_t page) const noexcept {
    std::uint64_t m = valid_;
#ifdef SPF_SIMD_MATCH
    if (!simd::force_scalar) {
      m &= simd::match_mask_u16(keys_.data(),
                                static_cast<std::uint32_t>(keys_.size()),
                                static_cast<std::uint16_t>(page));
    }
#endif
    for (; m != 0; m &= m - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
      if (pages_[i] == page) return i;
    }
    return kNone;
  }

  /// Lowest invalid tracker, else the least recently touched (lowest index
  /// on ties).
  [[nodiscard]] std::uint32_t victim() const noexcept {
    const auto n = static_cast<std::uint32_t>(streams_.size());
    const std::uint64_t all =
        n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
    if (const std::uint64_t free = ~valid_ & all; free != 0) {
      return static_cast<std::uint32_t>(std::countr_zero(free));
    }
    return min_stamp_index(lru_.data(), n);
  }

  StreamConfig config_;
  std::uint32_t line_shift_;
  std::uint32_t page_shift_;
  std::uint32_t lines_per_page_;
  std::vector<std::uint16_t> keys_;   // low 16 bits of pages_[i], padded
  std::vector<std::uint64_t> pages_;  // page-granular address per tracker
  std::vector<std::uint64_t> lru_;    // replacement stamp per tracker
  std::vector<Stream> streams_;
  std::uint64_t valid_ = 0;  // bit i: tracker i follows pages_[i]
  std::uint64_t clock_ = 0;
  std::uint64_t issued_ = 0;
};

// Defined here (not stream.cpp) so per-access callers inline the tracker
// scan instead of paying an out-of-line virtual-sized call.
inline void StreamPrefetcher::observe(const PrefetchObservation& obs,
                                      std::vector<LineAddr>& out) {
  const LineAddr line = obs.addr >> line_shift_;
  const std::uint64_t page = obs.addr >> page_shift_;
  ++clock_;

  const std::uint32_t found = find_page(page);
  if (found == kNone) {
    if (!obs.was_miss) return;  // streams train on misses only
    const std::uint32_t fresh = victim();
    keys_[fresh] = static_cast<std::uint16_t>(page);
    pages_[fresh] = page;
    lru_[fresh] = clock_;
    streams_[fresh] = Stream{.state = State::kTraining,
                             .last_line = line,
                             .sent_until = line,
                             .dir = 1};
    valid_ |= std::uint64_t{1} << fresh;
    return;
  }
  lru_[found] = clock_;
  Stream* s = &streams_[found];

  if (s->state == State::kTraining) {
    if (!obs.was_miss || line == s->last_line) return;
    s->dir = line > s->last_line ? 1 : -1;
    // Adjacent (or near-adjacent) second miss arms the stream.
    const LineAddr gap = line > s->last_line ? line - s->last_line
                                             : s->last_line - line;
    if (gap <= 2) {
      s->state = State::kArmed;
      s->last_line = line;
      s->sent_until = line;
    } else {
      s->last_line = line;  // restart training at the new point
    }
    if (s->state != State::kArmed) return;
  } else {
    s->last_line = line;
  }

  // Armed: keep the window `distance` lines ahead of the head, `degree` lines
  // per trigger, clipped to the page.
  const LineAddr page_first = page << (page_shift_ - line_shift_);
  const LineAddr page_last = page_first + lines_per_page_ - 1;
  std::uint32_t sent = 0;
  while (sent < config_.degree) {
    const std::int64_t ahead =
        s->dir > 0 ? static_cast<std::int64_t>(s->sent_until) - static_cast<std::int64_t>(line)
                   : static_cast<std::int64_t>(line) - static_cast<std::int64_t>(s->sent_until);
    if (ahead >= static_cast<std::int64_t>(config_.distance)) break;
    const std::int64_t next = static_cast<std::int64_t>(s->sent_until) + s->dir;
    if (next < static_cast<std::int64_t>(page_first) ||
        next > static_cast<std::int64_t>(page_last)) {
      break;  // streamer never crosses the page
    }
    s->sent_until = static_cast<LineAddr>(next);
    out.push_back(s->sent_until);
    ++issued_;
    ++sent;
  }
}

}  // namespace spf
