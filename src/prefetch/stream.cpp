#include "spf/prefetch/stream.hpp"

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
      key_count_((config.streams + 7) & ~std::uint32_t{7}),
      all_(config.streams >= kMaxStreams
               ? ~std::uint64_t{0}
               : (std::uint64_t{1} << config.streams) - 1) {
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.line_bytes)),
             "line size must be a power of two");
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.page_bytes)),
             "page size must be a power of two");
  SPF_ASSERT(config.page_bytes > config.line_bytes, "page must exceed line");
  SPF_ASSERT(config.streams > 0, "need at least one stream tracker");
  SPF_ASSERT(config.streams <= kMaxStreams,
             "validity bitmask holds at most 64 trackers");
  SPF_ASSERT(config.degree <= kMaxPrefetchDegree,
             "degree exceeds the candidate buffer");
}

void StreamPrefetcher::reset() {
  keys_.fill(0);
  pages_.fill(0);
  streams_.fill(Stream{});
  valid_ = 0;
  head_ = kNil;
  tail_ = kNil;
  issued_ = 0;
}

}  // namespace spf
