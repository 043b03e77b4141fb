#include "spf/prefetch/stride.hpp"

#include <bit>

#include "spf/common/assert.hpp"

namespace spf {

StridePrefetcher::StridePrefetcher(const StrideConfig& config)
    : config_(config),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(static_cast<std::uint64_t>(config.line_bytes)))),
      table_(config.table_entries) {
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.table_entries)),
             "stride table entries must be a power of two");
  SPF_ASSERT(std::has_single_bit(static_cast<std::uint64_t>(config.line_bytes)),
             "line size must be a power of two");
  SPF_ASSERT(config.threshold <= config.max_confidence, "threshold above saturation");
  SPF_ASSERT(config.degree <= kMaxPrefetchDegree,
             "degree exceeds the candidate buffer");
}

void StridePrefetcher::reset() {
  for (Entry& e : table_) e = Entry{};
  issued_ = 0;
}

}  // namespace spf
