// Feedback-directed prefetch distance.
//
// The paper derives a *static* upper bound from profiling; its related-work
// section points at feedback-directed prefetching (Srinath et al., HPCA'07
// [6]/[34]) as the dynamic alternative. This controller closes that loop: it
// watches per-interval pollution and timeliness counters and walks the
// distance up or down inside [min_distance, max_distance], so a workload
// whose behaviour drifts across phases stays near its best distance without
// a re-profile.
//
// Policy (additive-increase / multiplicative-decrease, like the classic FDP
// table):
//   pollution high                         -> distance /= 2  (too early)
//   pollution low and partial-hit share
//     high (fills arriving late)           -> distance += step (too late)
//   otherwise                              -> hold
//
// docs/adaptive.md covers the policy table, the continuous interval replay,
// and how the static Set-Affinity bound caps the walk.
#pragma once

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "spf/core/experiment.hpp"

namespace spf {

/// One phase's distance ceiling, in cumulative outer-iteration space (the
/// orchestrator derives these from PhasedDistanceBound::phases; see
/// spf/core/distance_bound.hpp).
struct PhaseDistanceCap {
  /// First outer iteration the cap applies to; a cap stays active until the
  /// next one's begin_iter.
  std::uint32_t begin_iter = 0;
  std::uint32_t upper_limit = 1;
};

struct AdaptiveConfig {
  std::uint32_t min_distance = 1;
  /// Typically the Set-Affinity bound: the static analysis still caps the
  /// dynamic walk.
  std::uint32_t max_distance = 64;
  std::uint32_t initial_distance = 8;
  /// Additive step when increasing.
  std::uint32_t increase_step = 4;
  /// Pollution events per 1000 demand L2 lookups above which prefetches are
  /// deemed too early.
  double pollution_high_per_mille = 40.0;
  double pollution_low_per_mille = 10.0;
  /// Partially-hit share of memory accesses above which prefetches are
  /// deemed too late (data still in flight when the core arrives).
  double late_share = 0.10;
  /// Observation interval length in outer iterations of the hot loop: the
  /// run pauses for the controller each time the main thread reaches the
  /// next multiple of it.
  std::uint32_t interval_iters = 1000;
  /// RP = A_PRE / (A_SKI + A_PRE) used to derive SpParams from the
  /// controller's distance each interval (SpParams::from_distance_rp).
  double rp = 0.5;
  /// Per-phase ceilings, sorted by strictly increasing begin_iter. When
  /// non-empty, run_adaptive re-clamps the controller's ceiling at each
  /// interval boundary to the cap of the phase covering the interval's first
  /// iteration (intersected with [min_distance, max_distance]); intervals
  /// before the first cap use max_distance. Empty keeps the single whole-run
  /// ceiling — bit-identical to the pre-phase behaviour.
  std::vector<PhaseDistanceCap> phase_caps;

  /// Empty string if the config is runnable; otherwise a one-line reason
  /// (the same conditions FeedbackDistanceController asserts, plus the
  /// interval/RP fields folded in here). run_adaptive_experiment and
  /// SweepSpec::validate surface this instead of crashing.
  [[nodiscard]] std::string validate() const;
};

/// One observation interval's counters (deltas, not cumulative).
struct IntervalFeedback {
  std::uint64_t l2_lookups = 0;
  std::uint64_t partially_hits = 0;
  std::uint64_t totally_misses = 0;
  std::uint64_t pollution_events = 0;
};

enum class AdaptiveAction : std::uint8_t { kHold, kIncrease, kDecrease };

[[nodiscard]] const char* to_string(AdaptiveAction a) noexcept;

class FeedbackDistanceController {
 public:
  explicit FeedbackDistanceController(const AdaptiveConfig& config);

  [[nodiscard]] std::uint32_t distance() const noexcept { return distance_; }
  /// Ceiling currently in effect (config max until re-clamped).
  [[nodiscard]] std::uint32_t max_distance() const noexcept {
    return effective_max_;
  }

  /// Digest one interval; returns the action taken. distance() afterwards
  /// reflects the new setting for the next interval.
  AdaptiveAction observe(const IntervalFeedback& interval);

  /// Re-clamps the walk's ceiling to `cap` (intersected with the config's
  /// [min_distance, max_distance]) and pulls the current distance under it.
  /// Returns the distance after clamping. A later call with a higher cap
  /// raises the ceiling again — the walk then probes upward on its own.
  std::uint32_t reclamp_max(std::uint32_t cap);

  [[nodiscard]] std::uint64_t increases() const noexcept { return increases_; }
  [[nodiscard]] std::uint64_t decreases() const noexcept { return decreases_; }
  [[nodiscard]] std::string to_string() const;

 private:
  AdaptiveConfig config_;
  std::uint32_t distance_;
  std::uint32_t effective_max_;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;
};

/// One ceiling re-clamp applied at an interval boundary (phase_caps only).
struct PhaseReclampEvent {
  /// Interval index (into distance_trajectory) the new ceiling first applied
  /// to.
  std::uint64_t interval = 0;
  /// Index into AdaptiveConfig::phase_caps; UINT32_MAX for the implicit
  /// "before the first cap" region (ceiling = max_distance).
  std::uint32_t phase = 0;
  /// Ceiling after intersection with [min_distance, max_distance].
  std::uint32_t cap = 0;
  /// Controller distance right after the clamp (<= cap by construction).
  std::uint32_t distance_after = 0;
};

/// An adaptive run: one continuous SP replay of the whole trace whose helper
/// is retuned at every interval boundary (ExperimentContext::run_adaptive).
struct AdaptiveRunResult {
  SpRunSummary aggregate;
  /// The controller's setting for each interval (trajectory.front() is the
  /// clamped initial distance whenever an interval ran); the helper adopts
  /// each setting from its next unserved round, up to a round later.
  std::vector<std::uint32_t> distance_trajectory;
  std::uint64_t intervals = 0;
  /// The controller's starting distance (initial_distance clamped into
  /// [min_distance, max_distance]) — recorded even when the trace was empty
  /// so final_distance() never degenerates to a fake "0".
  std::uint32_t initial_distance = 0;
  /// Controller action tallies over the whole run.
  std::uint64_t increases = 0;
  std::uint64_t decreases = 0;
  /// Ceiling re-clamps, in interval order (empty unless phase_caps engaged —
  /// the first interval always records one then, pinning the initial phase).
  std::vector<PhaseReclampEvent> reclamps;

  [[nodiscard]] std::uint32_t final_distance() const {
    return distance_trajectory.empty() ? initial_distance
                                       : distance_trajectory.back();
  }

  [[nodiscard]] double mean_distance() const {
    if (distance_trajectory.empty()) return initial_distance;
    const std::uint64_t sum =
        std::accumulate(distance_trajectory.begin(),
                        distance_trajectory.end(), std::uint64_t{0});
    return static_cast<double>(sum) /
           static_cast<double>(distance_trajectory.size());
  }
};

/// Thin wrapper over a short-lived ExperimentContext (the one implementation
/// lives in ExperimentContext::run_adaptive — hot callers that run many
/// adaptive experiments should lease a context from ExperimentContextPool
/// instead). The controller derives SpParams from its distance and
/// adaptive.rp at each interval boundary, so `base.params` must be left
/// default; a non-default value throws std::invalid_argument rather than
/// being silently ignored. Throws std::invalid_argument on an invalid
/// AdaptiveConfig (see AdaptiveConfig::validate).
[[nodiscard]] AdaptiveRunResult run_adaptive_experiment(
    const TraceBuffer& trace, const SpExperimentConfig& base,
    const AdaptiveConfig& adaptive);

}  // namespace spf
