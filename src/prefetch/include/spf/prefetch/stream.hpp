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
// is verified against its full page. The rest of a tracker's state is read
// only once its page matched. All tracker state lives in fixed arrays sized
// by the 64-tracker limit of the validity bitmask, so the prefetcher owns no
// heap storage.
//
// Replacement takes the lowest invalid tracker, else the least recently
// touched one. The valid trackers sit on a doubly linked recency list (one
// u8 prev/next pair each): a touch or an allocation moves its tracker to
// the head, and the victim is the tail, found in O(1).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "spf/common/simd_match.hpp"
#include "spf/prefetch/prefetcher.hpp"

namespace spf {

struct StreamConfig {
  /// Concurrent stream trackers (Core 2 streamer tracks 8-16); at most
  /// StreamPrefetcher::kMaxStreams.
  std::uint32_t streams = 16;
  /// How many lines ahead of the head to run.
  std::uint32_t distance = 4;
  /// Lines issued per triggering access (at most kMaxPrefetchDegree).
  std::uint32_t degree = 2;
  std::uint32_t line_bytes = 64;
  std::uint32_t page_bytes = 4096;
};

class StreamPrefetcher final : public HwPrefetcher {
 public:
  /// Tracker limit: the width of the validity bitmask.
  static constexpr std::uint32_t kMaxStreams = 64;

  explicit StreamPrefetcher(const StreamConfig& config);

  /// Observe one access and write its candidate lines to `out`, which must
  /// hold config.degree lines. Returns how many were written.
  std::uint32_t observe_into(const PrefetchObservation& obs, LineAddr* out);

  void observe(const PrefetchObservation& obs, std::vector<LineAddr>& out) override {
    LineAddr buf[kMaxPrefetchDegree]{};
    const std::uint32_t n = observe_into(obs, buf);
    out.insert(out.end(), buf, buf + n);
  }
  void reset() override;
  [[nodiscard]] std::string name() const override { return "streamer"; }

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  enum class State : std::uint8_t { kTraining, kArmed };

  /// Tracker state beside its page; meaningful only while the tracker's
  /// validity bit is set.
  struct Stream {
    State state = State::kTraining;
    LineAddr last_line = 0;   // last observed line in the stream
    LineAddr sent_until = 0;  // highest (or lowest) line already requested
    std::int8_t dir = 1;      // +1 ascending, -1 descending
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  /// End-of-list link in the recency list.
  static constexpr std::uint8_t kNil = 0xff;

  /// Tracker following `page`, or kNone. Valid pages are unique, so the
  /// lowest match is the only one.
  [[nodiscard]] std::uint32_t find_page(std::uint64_t page) const noexcept {
    std::uint64_t m = valid_;
#ifdef SPF_SIMD_MATCH
    if (!simd::force_scalar) {
      m &= simd::match_mask_u16(keys_.data(), key_count_,
                                static_cast<std::uint16_t>(page));
    }
#endif
    for (; m != 0; m &= m - 1) {
      const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
      if (pages_[i] == page) return i;
    }
    return kNone;
  }

  /// Links tracker `i` (not on the list) in at the head.
  void push_front(std::uint32_t i) noexcept {
    prev_[i] = kNil;
    next_[i] = head_;
    if (head_ != kNil) {
      prev_[head_] = static_cast<std::uint8_t>(i);
    } else {
      tail_ = static_cast<std::uint8_t>(i);
    }
    head_ = static_cast<std::uint8_t>(i);
  }

  /// Moves valid tracker `i` to the head: it is now the most recently
  /// touched.
  void touch(std::uint32_t i) noexcept {
    if (i == head_) return;
    // Not the head, so `i` has a predecessor.
    const std::uint8_t p = prev_[i];
    const std::uint8_t n = next_[i];
    next_[p] = n;
    if (n != kNil) {
      prev_[n] = p;
    } else {
      tail_ = p;
    }
    push_front(i);
  }

  /// Starts training a tracker on `page` at `line`: the lowest invalid
  /// tracker, else the least recently touched one (the list's tail).
  void allocate(std::uint64_t page, LineAddr line) noexcept {
    const std::uint64_t free = ~valid_ & all_;
    const std::uint32_t fresh =
        free != 0 ? static_cast<std::uint32_t>(std::countr_zero(free)) : tail_;
    if (free != 0) {
      valid_ |= std::uint64_t{1} << fresh;
      push_front(fresh);
    } else {
      touch(fresh);
    }
    keys_[fresh] = static_cast<std::uint16_t>(page);
    pages_[fresh] = page;
    streams_[fresh] = Stream{.state = State::kTraining,
                             .last_line = line,
                             .sent_until = line,
                             .dir = 1};
  }

  StreamConfig config_;
  std::uint32_t line_shift_;
  std::uint32_t page_shift_;
  std::uint32_t lines_per_page_;
  /// config_.streams rounded up to a multiple of 8: the vector compare's
  /// width over keys_ (padding keys are masked off by valid_).
  std::uint32_t key_count_;
  std::uint64_t all_;    // one bit per configured tracker
  std::uint64_t valid_ = 0;  // bit i: tracker i follows pages_[i]
  std::array<std::uint16_t, kMaxStreams> keys_{};  // low 16 bits of pages_[i]
  std::array<std::uint64_t, kMaxStreams> pages_{};  // page per tracker
  std::array<Stream, kMaxStreams> streams_{};
  /// Recency list over the valid trackers, head = most recently touched.
  std::array<std::uint8_t, kMaxStreams> prev_{};
  std::array<std::uint8_t, kMaxStreams> next_{};
  std::uint8_t head_ = kNil;
  std::uint8_t tail_ = kNil;
  std::uint64_t issued_ = 0;
};

// Defined here (not stream.cpp) so per-access callers inline the tracker
// scan instead of paying an out-of-line virtual-sized call.
inline std::uint32_t StreamPrefetcher::observe_into(const PrefetchObservation& obs,
                                                    LineAddr* out) {
  const LineAddr line = obs.addr >> line_shift_;
  const std::uint64_t page = obs.addr >> page_shift_;

  const std::uint32_t found = find_page(page);
  if (found == kNone) {
    if (obs.was_miss) allocate(page, line);  // streams train on misses only
    return 0;
  }
  touch(found);
  Stream& s = streams_[found];

  if (s.state == State::kTraining) {
    if (!obs.was_miss || line == s.last_line) return 0;
    s.dir = line > s.last_line ? 1 : -1;
    // Adjacent (or near-adjacent) second miss arms the stream.
    const LineAddr gap = line > s.last_line ? line - s.last_line
                                            : s.last_line - line;
    s.last_line = line;  // else training restarts at the new point
    if (gap > 2) return 0;
    s.state = State::kArmed;
    s.sent_until = line;
  } else {
    s.last_line = line;
  }

  // Armed: keep the window `distance` lines ahead of the head, `degree` lines
  // per trigger, clipped to the page.
  const LineAddr page_first = page << (page_shift_ - line_shift_);
  const LineAddr page_last = page_first + lines_per_page_ - 1;
  std::uint32_t sent = 0;
  while (sent < config_.degree) {
    const std::int64_t ahead =
        s.dir > 0 ? static_cast<std::int64_t>(s.sent_until) - static_cast<std::int64_t>(line)
                  : static_cast<std::int64_t>(line) - static_cast<std::int64_t>(s.sent_until);
    if (ahead >= static_cast<std::int64_t>(config_.distance)) break;
    const std::int64_t next = static_cast<std::int64_t>(s.sent_until) + s.dir;
    if (next < static_cast<std::int64_t>(page_first) ||
        next > static_cast<std::int64_t>(page_last)) {
      break;  // streamer never crosses the page
    }
    s.sent_until = static_cast<LineAddr>(next);
    out[sent++] = s.sent_until;
  }
  issued_ += sent;
  return sent;
}

}  // namespace spf
