// The paper's contribution: an upper limit on prefetch distance derived from
// Set Affinity (§III.B).
//
//   Set Affinity with Helper Thread * 2 <= Original Set Affinity
//   =>  Prefetch Distance < Set Affinity with Helper Thread
//   =>  Prefetch Distance < Original Set Affinity / 2
//
// "to avoid introducing cache pollution, the upper limit of prefetch
//  distance should be the minimum Set Affinity with Helper Thread."
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spf/core/sp_params.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/profile/incremental_affinity.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/trace/trace.hpp"

namespace spf {

struct DistanceBound {
  /// Minimum Original Set Affinity (application alone, hardware prefetchers
  /// and helper threading off — paper Definition 2).
  std::uint32_t original_min_sa = 0;
  /// Minimum Set Affinity measured on the combined main+helper reference
  /// stream, when a helper trace was supplied (paper Definition 3).
  std::optional<std::uint32_t> with_helper_min_sa;
  /// The bound actually recommended: with_helper_min_sa when measured,
  /// otherwise original_min_sa / 2.
  std::uint32_t upper_limit = 0;

  [[nodiscard]] bool allows(std::uint32_t distance) const noexcept {
    return distance < upper_limit;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Estimates the bound from the main thread's hot-loop trace, honoring
/// hot-function invocation boundaries (see analyze_workload_sa). Throws
/// std::runtime_error when no cache set saturates: the working set fits in
/// the cache and pollution sets no bound.
[[nodiscard]] DistanceBound estimate_distance_bound(
    const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& l2);

/// Refines the bound by measuring Set Affinity with Helper Thread directly:
/// streams the helper view for `params` (HelperViewCursor, re-anchored)
/// merged with the main stream (MergeByIterCursor) through the analysis —
/// zero trace-record allocations.
[[nodiscard]] DistanceBound refine_with_helper(
    const DistanceBound& bound, const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const SpParams& params,
    const CacheGeometry& l2);

// ---- per-phase bounds (phase-incremental analyzer) -----------------------
//
// The whole-run bound caps the entire run at the worst phase's limit. The
// phased analyses keep the whole-run result — bit-identical to the functions
// above — and additionally carry one bound per detected phase, so the
// adaptive controller can re-clamp its ceiling as the workload's set
// pressure shifts (AdaptiveConfig::phase_caps). min over the per-phase
// bounds always equals the whole-run bound (phases partition the samples),
// so per-phase capping only ever *relaxes* quiet phases, never loosens the
// paper's inequality inside a pressured one.

struct PhaseDistanceBound {
  /// Cumulative outer-iteration span [begin_iter, end_iter) this bound
  /// applies to; spans are contiguous and start at 0.
  std::uint32_t begin_iter = 0;
  std::uint32_t end_iter = 0;
  /// Minimum SA measured inside the phase on the analyzed stream (original
  /// for estimate_phase_bounds, main+helper for refine_phase_bounds); 0 when
  /// the phase recorded no sample.
  std::uint32_t min_sa = 0;
  /// The cap recommended while this phase is active. Phases without samples
  /// inherit the whole-run limit (conservative: no evidence to relax).
  std::uint32_t upper_limit = 0;
};

struct PhasedDistanceBound {
  /// Identical to what estimate_distance_bound / refine_with_helper return
  /// on the same inputs (the degenerate single-phase reference semantics).
  DistanceBound whole;
  std::vector<PhaseDistanceBound> phases;  // >= 1 once analyzed

  [[nodiscard]] std::uint32_t phase_count() const noexcept {
    return static_cast<std::uint32_t>(phases.size());
  }
  /// Cap of the phase covering `outer_iter` (the last phase covers the tail;
  /// whole.upper_limit when no phases were analyzed).
  [[nodiscard]] std::uint32_t bound_at(std::uint32_t outer_iter) const;
  /// min over per-phase caps — always equals whole.upper_limit.
  [[nodiscard]] std::uint32_t min_phase_bound() const;
  [[nodiscard]] std::string to_string() const;
};

/// Phased analogue of estimate_distance_bound: same whole-run bound (and the
/// same throw when no set saturates), plus a per-phase cap
/// max(1, phase_min_sa / 2).
[[nodiscard]] PhasedDistanceBound estimate_phase_bounds(
    const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const CacheGeometry& l2,
    const PhaseAffinityConfig& config = {});

/// Phased analogue of refine_with_helper: phases are detected on the same
/// streamed main+helper merge (zero trace-record allocations); each phase's
/// cap is max(1, min(phase_with_helper_min_sa, original_min_sa / 2)).
[[nodiscard]] PhasedDistanceBound refine_phase_bounds(
    const PhasedDistanceBound& bound, const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const SpParams& params,
    const CacheGeometry& l2, const PhaseAffinityConfig& config = {});

}  // namespace spf
