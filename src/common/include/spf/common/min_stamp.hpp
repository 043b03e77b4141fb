// Branch-free oldest-stamp search over a small packed array.
//
// LRU-style victim choice (the cache's LRU and FIFO policies) is "the lowest
// index holding the minimum stamp".
// Stamps arrive in no predictable order, so a branchy scan mispredicts its
// updates; this one carries the running minimum through selects instead.
#pragma once

#include <cstdint>

namespace spf {

/// Lowest index in [0, n) holding the minimum of `stamps`. Pre: n >= 1.
[[nodiscard]] inline std::uint32_t min_stamp_index(const std::uint64_t* stamps,
                                                   std::uint32_t n) noexcept {
  std::uint32_t best = 0;
  std::uint64_t best_stamp = stamps[0];
  std::uint32_t i = 1;
  // Each pair is reduced on its own and only its winner meets the running
  // minimum, which halves the chain of dependent compares. Both steps keep
  // the lower index on ties.
  for (; i + 1 < n; i += 2) {
    const bool right = stamps[i + 1] < stamps[i];
    const std::uint64_t pair_stamp = right ? stamps[i + 1] : stamps[i];
    const std::uint32_t pair = right ? i + 1 : i;
    const bool older = pair_stamp < best_stamp;
    best_stamp = older ? pair_stamp : best_stamp;
    best = older ? pair : best;
  }
  if (i < n) best = stamps[i] < best_stamp ? i : best;
  return best;
}

}  // namespace spf
