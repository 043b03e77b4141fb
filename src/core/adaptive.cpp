#include "spf/core/adaptive.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <stdexcept>

#include "spf/common/assert.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/telemetry/telemetry.hpp"

namespace spf {

const char* to_string(AdaptiveAction a) noexcept {
  switch (a) {
    case AdaptiveAction::kHold: return "hold";
    case AdaptiveAction::kIncrease: return "increase";
    case AdaptiveAction::kDecrease: return "decrease";
  }
  return "?";
}

std::string AdaptiveConfig::validate() const {
  if (min_distance < 1) return "min_distance must be >= 1";
  if (min_distance > max_distance) {
    return "empty distance range (min_distance > max_distance)";
  }
  if (increase_step < 1) return "increase_step must be >= 1";
  if (interval_iters < 1) return "interval_iters must be >= 1";
  if (!(rp > 0.0) || rp > 1.0) return "rp must be in (0, 1]";
  for (std::size_t i = 0; i < phase_caps.size(); ++i) {
    if (phase_caps[i].upper_limit < 1) {
      return "phase cap upper_limit must be >= 1";
    }
    if (i > 0 && phase_caps[i].begin_iter <= phase_caps[i - 1].begin_iter) {
      return "phase caps must have strictly increasing begin_iter";
    }
  }
  return "";
}

FeedbackDistanceController::FeedbackDistanceController(
    const AdaptiveConfig& config)
    : config_(config), effective_max_(config.max_distance) {
  // Checked before the clamp: std::clamp with max < min is undefined.
  SPF_ASSERT(config.min_distance >= 1, "distance must stay positive");
  SPF_ASSERT(config.min_distance <= config.max_distance, "empty distance range");
  SPF_ASSERT(config.increase_step >= 1, "increase step must be positive");
  distance_ = std::clamp(config.initial_distance, config.min_distance,
                         config.max_distance);
}

AdaptiveAction FeedbackDistanceController::observe(
    const IntervalFeedback& interval) {
  if (interval.l2_lookups == 0) return AdaptiveAction::kHold;
  const double pollution_pm =
      1000.0 * static_cast<double>(interval.pollution_events) /
      static_cast<double>(interval.l2_lookups);
  const std::uint64_t mem_acc =
      interval.partially_hits + interval.totally_misses;
  const double late = mem_acc ? static_cast<double>(interval.partially_hits) /
                                    static_cast<double>(mem_acc)
                              : 0.0;

  if (pollution_pm > config_.pollution_high_per_mille &&
      distance_ > config_.min_distance) {
    distance_ = std::max(config_.min_distance, distance_ / 2);
    ++decreases_;
    return AdaptiveAction::kDecrease;
  }
  if (pollution_pm < config_.pollution_low_per_mille &&
      late > config_.late_share && distance_ < effective_max_) {
    distance_ = std::min(effective_max_, distance_ + config_.increase_step);
    ++increases_;
    return AdaptiveAction::kIncrease;
  }
  return AdaptiveAction::kHold;
}

std::uint32_t FeedbackDistanceController::reclamp_max(std::uint32_t cap) {
  effective_max_ =
      std::clamp(cap, config_.min_distance, config_.max_distance);
  distance_ = std::clamp(distance_, config_.min_distance, effective_max_);
  return distance_;
}

std::string FeedbackDistanceController::to_string() const {
  return "adaptive{distance=" + std::to_string(distance_) +
         " +" + std::to_string(increases_) + "/-" + std::to_string(decreases_) +
         "}";
}

AdaptiveRunResult ExperimentContext::run_adaptive(
    const TraceBuffer& main_trace, const SpExperimentConfig& base,
    const AdaptiveConfig& adaptive, const L1HitBitmap* main_l1_hits) {
  if (const std::string problem = adaptive.validate(); !problem.empty()) {
    throw std::invalid_argument("invalid AdaptiveConfig: " + problem);
  }
  const SpParams default_params{};
  if (base.params.a_ski != default_params.a_ski ||
      base.params.a_pre != default_params.a_pre) {
    throw std::invalid_argument(
        "run_adaptive derives SpParams per interval from the controller's "
        "distance and AdaptiveConfig::rp; base.params must stay default "
        "(set AdaptiveConfig::rp / initial_distance instead)");
  }
  SPF_SPAN("adaptive");
  telemetry::count(telemetry::Counter::kAdaptiveRuns);

  AdaptiveRunResult result;
  FeedbackDistanceController controller(adaptive);
  result.initial_distance = controller.distance();
  if (main_trace.size() == 0) return result;

  // One continuous SP replay of the whole trace. An interval ends where the
  // main core's next record reaches the next multiple of interval_iters: the
  // run pauses there, the controller reads the interval's counters, and the
  // helper adopts the new distance from the first round it has not served.
  telemetry::count(telemetry::Counter::kReplayRuns);
  telemetry::count(telemetry::Counter::kReplayRecords, main_trace.size());
  const std::uint32_t interval = adaptive.interval_iters;
  std::optional<std::uint32_t> next = main_trace.records().front().outer_iter;
  SpRunSummary prev_cumulative;  // the run's totals at the last pause
  // Per-phase ceilings: the active cap is re-evaluated at every interval
  // boundary; the ceiling is re-clamped (and an event recorded) only when
  // the active phase changes. kNoCap covers iterations before the first
  // cap's begin_iter; kUnresolved forces the first interval to resolve —
  // and record — its phase, pinning the initial ceiling in the artifact.
  constexpr std::ptrdiff_t kUnresolved = -2;
  constexpr std::ptrdiff_t kNoCap = -1;
  std::ptrdiff_t active_cap = kUnresolved;
  std::unique_ptr<telemetry::ScopedSpan> phase_span;
  while (next) {
    const std::uint32_t first_iter = *next / interval * interval;
    if (!adaptive.phase_caps.empty()) {
      std::ptrdiff_t cap_idx = kNoCap;
      for (std::size_t c = 0; c < adaptive.phase_caps.size() &&
                              adaptive.phase_caps[c].begin_iter <= first_iter;
           ++c) {
        cap_idx = static_cast<std::ptrdiff_t>(c);
      }
      if (cap_idx != active_cap) {
        active_cap = cap_idx;
        const std::uint32_t ceiling =
            cap_idx == kNoCap
                ? adaptive.max_distance
                : adaptive.phase_caps[static_cast<std::size_t>(cap_idx)]
                      .upper_limit;
        const std::uint32_t after = controller.reclamp_max(ceiling);
        telemetry::count(telemetry::Counter::kAdaptiveReclamps);
        telemetry::sample("affinity.bound", controller.max_distance());
        phase_span.reset();
        phase_span = std::make_unique<telemetry::ScopedSpan>(
            "affinity.phase", "bound",
            static_cast<std::uint64_t>(controller.max_distance()));
        result.reclamps.push_back(PhaseReclampEvent{
            .interval = result.intervals,
            .phase = cap_idx == kNoCap
                         ? std::uint32_t{0xffffffffu}
                         : static_cast<std::uint32_t>(cap_idx),
            .cap = controller.max_distance(),
            .distance_after = after});
      }
    }
    const std::uint32_t distance = controller.distance();
    SPF_SPAN("adaptive.interval", "distance", distance);
    telemetry::count(telemetry::Counter::kAdaptiveIntervals);
    telemetry::sample("adaptive.distance", distance);
    telemetry::gauge_max(telemetry::Gauge::kAdaptiveDistanceMax, distance);

    const SpParams params = SpParams::from_distance_rp(distance, adaptive.rp);
    if (result.intervals == 0) {
      SpExperimentConfig cfg = base;
      cfg.params = params;
      simulator_.start(cfg.sim, sp_streams(main_trace, cfg, main_l1_hits));
    } else {
      helper_feed_->cursor().retune(params);
    }
    next = simulator_.run_until(std::uint64_t{first_iter} + interval);
    // Cumulative totals so far; the last interval ends with the finished run.
    const SpRunSummary summary =
        SpRunSummary::from(next ? simulator_.progress() : simulator_.finish());
    if (summary.provenance.enabled && telemetry::enabled()) {
      // Per-interval mean fill->first-use distance (demand L2 lookups), the
      // timeliness companion of the adaptive.distance track. A resident fill
      // can migrate fate categories between snapshots, so guard against
      // non-monotone deltas instead of asserting them.
      const ProvenanceSummary& cur = summary.provenance;
      const ProvenanceSummary& prev = prev_cumulative.provenance;
      const std::uint64_t timely_delta =
          cur.used_timely > prev.used_timely
              ? cur.used_timely - prev.used_timely
              : 0;
      const std::uint64_t total_delta =
          cur.fill_to_use_total > prev.fill_to_use_total
              ? cur.fill_to_use_total - prev.fill_to_use_total
              : 0;
      if (timely_delta > 0) {
        telemetry::sample("prefetch.fill_to_use", total_delta / timely_delta);
      }
    }
    // The controller wants this interval's deltas, and the final
    // cumulative summary IS the aggregate.
    IntervalFeedback feedback;
    feedback.l2_lookups = summary.l2_lookups - prev_cumulative.l2_lookups;
    feedback.partially_hits =
        summary.partially_hits - prev_cumulative.partially_hits;
    feedback.totally_misses =
        summary.totally_misses - prev_cumulative.totally_misses;
    feedback.pollution_events = summary.pollution.total_pollution() -
                                prev_cumulative.pollution.total_pollution();
    result.aggregate = summary;
    prev_cumulative = summary;

    result.distance_trajectory.push_back(distance);
    ++result.intervals;
    switch (controller.observe(feedback)) {
      case AdaptiveAction::kIncrease:
        telemetry::count(telemetry::Counter::kAdaptiveIncreases);
        break;
      case AdaptiveAction::kDecrease:
        telemetry::count(telemetry::Counter::kAdaptiveDecreases);
        break;
      case AdaptiveAction::kHold:
        telemetry::count(telemetry::Counter::kAdaptiveHolds);
        break;
    }
  }
  telemetry::count(telemetry::Counter::kHelperRecords,
                   helper_feed_->records_served());
  result.increases = controller.increases();
  result.decreases = controller.decreases();
  telemetry::gauge_max(telemetry::Gauge::kArenaBytesMax, arena_.bytes_served());
  return result;
}

AdaptiveRunResult run_adaptive_experiment(const TraceBuffer& trace,
                                          const SpExperimentConfig& base,
                                          const AdaptiveConfig& adaptive) {
  ExperimentContext ctx;
  return ctx.run_adaptive(trace, base, adaptive);
}

}  // namespace spf
