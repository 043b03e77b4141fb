// Phase-incremental Set Affinity.
//
// The whole-run analyzer (spf/profile/invocations.hpp) folds every SA sample
// into one bound, so a workload whose set pressure shifts across phases is
// capped by its *worst* phase for the entire run. This analyzer streams the
// same records once — through any TraceCursor, zero trace-record allocations
// — and additionally attributes each SA sample to a sliding outer-iteration
// window, emitting one bound per detected phase:
//
//   * Windows of `window_iters` cumulative outer iterations aggregate the SA
//     samples recorded inside them (a window's estimate is its minimum SA,
//     matching the paper's min-driven bound).
//   * An exponential moving average tracks the window estimates; a window
//     whose estimate deviates from the EMA by more than
//     `hysteresis * EMA` opens a new phase at that window's start and
//     re-seeds the EMA. Windows without samples extend the current phase.
//
// The whole-run result is assembled by the *same* per-invocation merge (and
// cumulative fallback) as analyze_workload_sa, so the degenerate single-phase
// case is bit-identical to the legacy analyzer — that equivalence is the
// reference semantics, pinned by tests/phase_affinity_differential_test.cpp.
// Because phases partition the samples, min over per-phase minima equals the
// whole-run minimum (tests/phase_affinity_property_test.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {

struct PhaseAffinityConfig {
  /// Sliding-window length in cumulative outer iterations; SA samples inside
  /// one window fold into one bound estimate (the window minimum).
  std::uint32_t window_iters = 64;
  /// Relative deviation of a window estimate from the EMA that opens a new
  /// phase: |estimate - ema| > hysteresis * ema.
  double hysteresis = 0.5;
  /// EMA weight of the newest window estimate, in (0, 1].
  double ema_alpha = 0.25;
  /// When false, detection is off and the analysis reports exactly one phase
  /// spanning the run — the legacy whole-run semantics.
  bool detect_phases = true;

  /// Empty string if runnable; otherwise a one-line reason.
  [[nodiscard]] std::string validate() const;
};

struct AffinityPhase {
  std::uint32_t index = 0;
  /// Cumulative outer-iteration span [begin_iter, end_iter); phases are
  /// contiguous and cover [0, last record's iteration + 1).
  std::uint32_t begin_iter = 0;
  std::uint32_t end_iter = 0;
  /// Minimum SA recorded inside the phase; 0 when it recorded no sample.
  std::uint32_t min_sa = 0;
  std::uint64_t samples = 0;
};

struct PhasedSaResult {
  /// Bit-identical to analyze_workload_sa on the same record sequence.
  WorkloadSaResult whole;
  /// At least one phase; a contiguous partition of the iteration span. The
  /// minimum SA over the phases that recorded samples always equals
  /// whole.merged.min_sa() (phases partition the samples).
  std::vector<AffinityPhase> phases;
};

/// Streaming analyzer: feed records in trace order via observe(); when
/// needs_cumulative_pass() reports true, re-feed the same records through
/// observe_cumulative() (the short-invocation fallback, as in
/// analyze_workload_sa); then call finish(). analyze_workload_sa_phased
/// wraps the protocol for any TraceCursor.
class IncrementalAffinityAnalyzer {
 public:
  IncrementalAffinityAnalyzer(const CacheGeometry& geometry,
                              std::vector<std::uint32_t> invocation_starts,
                              const PhaseAffinityConfig& config = {});

  /// Per-invocation pass: re-bases iterations at each invocation start
  /// (exactly analyze_workload_sa's loop) and attributes any recorded SA
  /// sample to the record's cumulative-iteration window.
  void observe(const TraceRecord& r);

  /// Closes the per-invocation pass and merges its results. True when no
  /// invocation saturated any set: the caller must then re-stream the same
  /// records through observe_cumulative() (phase state restarts too, so the
  /// phases describe the analysis actually used).
  [[nodiscard]] bool needs_cumulative_pass();

  /// Fallback pass: cumulative iteration numbering, no invocation splits.
  void observe_cumulative(const TraceRecord& r);

  [[nodiscard]] PhasedSaResult finish();

 private:
  void on_sample(std::uint32_t cumulative_iter, std::uint32_t sa);
  void close_window();
  void absorb_window();

  CacheGeometry geometry_;
  std::vector<std::uint32_t> invocation_starts_;
  PhaseAffinityConfig config_;

  // Per-invocation pass state (mirrors analyze_workload_sa).
  SetAffinityAnalyzer analyzer_;
  std::size_t inv_ = 0;
  std::uint32_t base_ = 0;
  std::vector<SetAffinityResult> per_invocation_;
  WorkloadSaResult whole_;
  bool merged_ = false;
  bool fallback_ = false;

  // Phase tracker state (cumulative iteration space).
  std::uint32_t iter_end_ = 0;  // max cumulative iteration seen + 1
  bool window_open_ = false;
  std::uint64_t window_idx_ = 0;
  std::uint32_t window_min_ = 0;
  std::uint64_t window_count_ = 0;
  double ema_ = 0.0;
  bool ema_set_ = false;
  AffinityPhase current_;
  std::vector<AffinityPhase> phases_;
};

/// One ordered pass over the cursor (two when the cumulative fallback
/// triggers, via cursor.reset()) — the phased analogue of the streaming
/// analyze_workload_sa, and like it performs no trace-record allocations.
template <TraceCursor Cursor>
[[nodiscard]] PhasedSaResult analyze_workload_sa_phased(
    Cursor& cursor, const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& geometry, const PhaseAffinityConfig& config = {}) {
  SPF_ASSERT(config.validate().empty(), "invalid PhaseAffinityConfig");
  IncrementalAffinityAnalyzer analyzer(geometry, invocation_starts, config);
  for (; !cursor.done(); cursor.advance()) analyzer.observe(cursor.current());
  if (analyzer.needs_cumulative_pass()) {
    cursor.reset();
    for (; !cursor.done(); cursor.advance()) {
      analyzer.observe_cumulative(cursor.current());
    }
  }
  return analyzer.finish();
}

/// TraceBuffer convenience: the same algorithm over a TraceViewCursor.
[[nodiscard]] PhasedSaResult analyze_workload_sa_phased(
    const TraceBuffer& trace,
    const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& geometry, const PhaseAffinityConfig& config = {});

}  // namespace spf
