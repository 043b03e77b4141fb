#include "spf/prefetch/stream.hpp"

#include <algorithm>
#include <bit>

#include "spf/common/assert.hpp"

namespace spf {

StreamPrefetcher::StreamPrefetcher(const StreamConfig& config)
    : config_(config),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
      page_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.page_bytes)))),
      lines_per_page_(config.page_bytes / config.line_bytes),
      keys_((config.streams + 7) & ~std::uint32_t{7}, 0),
      pages_(config.streams, 0),
      lru_(config.streams, 0),
      streams_(config.streams) {
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.line_bytes)),
             "line size must be a power of two");
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.page_bytes)),
             "page size must be a power of two");
  SPF_ASSERT(config.page_bytes > config.line_bytes, "page must exceed line");
  SPF_ASSERT(config.streams > 0, "need at least one stream tracker");
  SPF_ASSERT(config.streams <= 64, "validity bitmask holds at most 64 trackers");
}

void StreamPrefetcher::reset() {
  for (Stream& s : streams_) s = Stream{};
  std::fill(keys_.begin(), keys_.end(), 0);
  std::fill(pages_.begin(), pages_.end(), 0);
  std::fill(lru_.begin(), lru_.end(), 0);
  valid_ = 0;
  clock_ = 0;
  issued_ = 0;
}

}  // namespace spf
