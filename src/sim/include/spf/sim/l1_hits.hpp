// Precomputed private-L1 outcome of one core's trace: one hit bit per record.
//
// A core's private L1 is LRU, only that core's own demand misses fill it,
// and its lookups ignore time, so whether record i hits the L1 depends on
// the core's records alone — never on the shared L2, the helper, the
// prefetchers or the prefetch distance. A sweep replays one main trace in a
// plane's baseline and in every cell, so orchestrate::run_sweep computes the
// main trace's bitmap once per workload and hands it to every run through
// CoreStream::l1_hits; the simulator then reads bit i for record i instead
// of touching an L1. Results are bit-identical to the live L1 (see
// docs/simulator.md "Performance model & hot path").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "spf/mem/geometry.hpp"
#include "spf/trace/trace.hpp"

namespace spf {

class L1HitBitmap {
 public:
  /// An empty bitmap (zero records) over the default L1 geometry.
  L1HitBitmap() = default;

  /// Replays `trace` through a cold LRU L1 of geometry `l1` the way the
  /// simulator's demand path does: demand records reference the L1 in trace
  /// order; software-prefetch records never touch it, and their bit is 0.
  [[nodiscard]] static L1HitBitmap compute(const TraceBuffer& trace,
                                           const CacheGeometry& l1);

  /// Whether record `record` hits the L1. Precondition: record < size().
  [[nodiscard]] bool hit(std::size_t record) const noexcept {
    return ((words_[record >> 6] >> (record & 63)) & 1) != 0;
  }

  /// Records covered; equals the trace's size.
  [[nodiscard]] std::size_t size() const noexcept { return records_; }
  /// The L1 geometry the bitmap was computed for.
  [[nodiscard]] const CacheGeometry& l1() const noexcept { return l1_; }

 private:
  CacheGeometry l1_ = CacheGeometry::core2_l1d();
  std::size_t records_ = 0;
  std::vector<std::uint64_t> words_;  // bit i of word i / 64 = record i
};

}  // namespace spf
