// Set Affinity across hot-function invocations.
//
// The paper measures SA per hot-function call ("For each representative data
// access stream sample in every application, we analyze Set Affinity of the
// outer hot loop"): iteration counting restarts each invocation. This helper
// analyzes each invocation independently and merges the samples; when no
// single invocation is long enough to saturate any set (short-call hot
// functions like MST's shrinking BlueRule scans), it falls back to the
// cumulative stream and flags that it did.
//
// The analysis only needs one ordered pass over the records (two when the
// cumulative fallback triggers), so it accepts any TraceCursor — the
// distance-bound refinement streams the merged main+helper view through it
// without materializing the combined trace (spf/core/distance_bound.hpp).
// The TraceBuffer overload is the same algorithm over a TraceViewCursor.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {

struct WorkloadSaResult {
  SetAffinityResult merged;
  /// True when the fallback cumulative analysis was used.
  bool cumulative_fallback = false;
  std::uint32_t invocations_analyzed = 0;
};

/// `invocation_starts` lists the cumulative outer-iteration index at which
/// each hot-function invocation begins; the first element must be 0.
[[nodiscard]] WorkloadSaResult analyze_workload_sa(
    const TraceBuffer& trace,
    const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& geometry);

/// Streaming variant over any TraceCursor. Consumes the cursor; resets and
/// re-streams it when the cumulative fallback triggers. Identical output to
/// the TraceBuffer overload fed the same record sequence
/// (tests/trace_stream_differential_test.cpp pins this).
template <TraceCursor Cursor>
[[nodiscard]] WorkloadSaResult analyze_workload_sa(
    Cursor& cursor, const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& geometry) {
  SPF_ASSERT(!invocation_starts.empty() && invocation_starts.front() == 0,
             "invocation starts must begin at iteration 0");
  WorkloadSaResult out;

  // Per-invocation pass: a fresh analyzer per invocation, iteration numbers
  // re-based so SA is "iterations since this call of the hot function". Each
  // invocation's result is merged as soon as it finishes, so only one is
  // held at a time.
  const auto merge = [&out](const SetAffinityResult& r) {
    out.merged.samples.insert(out.merged.samples.end(), r.samples.begin(),
                              r.samples.end());
    out.merged.accesses += r.accesses;
    out.merged.touched_sets = std::max(out.merged.touched_sets, r.touched_sets);
    out.merged.outer_iterations += r.outer_iterations;
    for (const auto& [set, sa] : r.per_set) {
      auto [it, inserted] = out.merged.per_set.emplace(set, sa);
      if (!inserted) it->second = std::min(it->second, sa);
    }
    ++out.invocations_analyzed;
  };
  std::size_t inv = 0;
  SetAffinityAnalyzer analyzer(geometry);
  std::uint32_t base = 0;
  for (; !cursor.done(); cursor.advance()) {
    const TraceRecord& r = cursor.current();
    while (inv + 1 < invocation_starts.size() &&
           r.outer_iter >= invocation_starts[inv + 1]) {
      merge(analyzer.finish());
      ++inv;
      base = invocation_starts[inv];
    }
    analyzer.observe(r.addr, r.outer_iter - base);
  }
  merge(analyzer.finish());

  if (out.merged.samples.empty()) {
    // No single invocation was long enough to saturate any set: measure over
    // the cumulative stream instead (documented deviation for short-call hot
    // functions like MST's BlueRule scan).
    cursor.reset();
    for (; !cursor.done(); cursor.advance()) {
      const TraceRecord& r = cursor.current();
      analyzer.observe(r.addr, r.outer_iter);
    }
    out.merged = analyzer.finish();
    out.cumulative_fallback = true;
  }
  return out;
}

}  // namespace spf
