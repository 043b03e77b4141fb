// Tag-only true-LRU cache: per set, one MRU-to-LRU row of line addresses.
//
// A core's private L1 is LRU, only its own demand misses fill it, and nothing
// reads its line metadata or its victims — all the simulator needs from it is
// the hit/miss sequence. A true-LRU set always holds its `ways` most recently
// referenced distinct lines, so a row kept in recency order reproduces
// Cache(kLru)'s hit/miss sequence under access-then-fill-on-miss exactly: a
// reference hits iff its line is in the set's row, and either way the line
// moves to the row's front (a miss pushes the LRU entry off the back). The
// row holds nothing else: no partial tags, stamps, metadata, counters or
// Eviction, so one reference is one short scan plus one shift.
//
// The general Cache (spf/cache/cache.hpp) stays the model for every cache
// whose metadata matters — the shared L2 above all.
#pragma once

#include <cstdint>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/mem/types.hpp"

namespace spf {

class LruStack {
 public:
  /// Empty slots hold this value; no line address of a real access reaches
  /// it (it would need a 1-byte line at the top of the address space).
  static constexpr LineAddr kEmpty = ~LineAddr{0};

  /// An unconfigured stack; reset() gives it a shape before first use.
  LruStack() = default;
  explicit LruStack(const CacheGeometry& geometry) { reset(geometry); }

  /// Reinitialize to a cold stack of the given shape, reusing the row
  /// storage's capacity.
  void reset(const CacheGeometry& geometry) {
    set_mask_ = geometry.num_sets() - 1;
    ways_ = geometry.ways();
    rows_.assign(geometry.num_sets() * ways_, kEmpty);
  }

  /// References `line` and returns true on a hit. Either way the line ends
  /// as its set's MRU entry; on a miss the set's LRU entry (or an empty slot)
  /// drops out. Same outcome as Cache(kLru)::access followed, on a miss, by
  /// fill.
  SPF_ALWAYS_INLINE bool access(LineAddr line) {
    SPF_DEBUG_ASSERT(line != kEmpty, "line address collides with kEmpty");
    LineAddr* row = &rows_[(line & set_mask_) * ways_];
    // The match position, or the LRU slot when the line is absent: both are
    // the slot the shift below overwrites.
    std::uint32_t pos = 0;
    const std::uint32_t last = ways_ - 1;
    while (pos < last && row[pos] != line) ++pos;
    const bool hit = row[pos] == line;
    for (; pos > 0; --pos) row[pos] = row[pos - 1];
    row[0] = line;
    return hit;
  }

 private:
  std::uint64_t set_mask_ = 0;
  std::uint32_t ways_ = 0;
  std::vector<LineAddr> rows_;  // num_sets rows of `ways`, MRU first
};

}  // namespace spf
