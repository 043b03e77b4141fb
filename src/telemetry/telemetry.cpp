#include "spf/telemetry/telemetry.hpp"

namespace spf::telemetry {

const char* to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kSweepCells: return "sweep.cells";
    case Counter::kSweepCellsFailed: return "sweep.cells_failed";
    case Counter::kTraceEmissions: return "trace.emissions";
    case Counter::kTraceMemoHits: return "trace.memo_hits";
    case Counter::kTraceMemoMisses: return "trace.memo_misses";
    case Counter::kBaselineRuns: return "replay.baseline_runs";
    case Counter::kReplayRuns: return "replay.sp_runs";
    case Counter::kReplayRecords: return "replay.records";
    case Counter::kHelperRecords: return "replay.helper_records";
    case Counter::kDistanceBounds: return "refine.distance_bounds";
    case Counter::kRefineRuns: return "refine.runs";
    case Counter::kPhaseAnalyses: return "affinity.phase_runs";
    case Counter::kAffinityPhases: return "affinity.phases";
    case Counter::kAdaptiveRuns: return "adaptive.runs";
    case Counter::kAdaptiveIntervals: return "adaptive.intervals";
    case Counter::kAdaptiveIncreases: return "adaptive.increases";
    case Counter::kAdaptiveDecreases: return "adaptive.decreases";
    case Counter::kAdaptiveHolds: return "adaptive.holds";
    case Counter::kAdaptiveReclamps: return "adaptive.reclamps";
    case Counter::kL2Lookups: return "sim.l2_lookups";
    case Counter::kL2TotallyHits: return "sim.l2_totally_hits";
    case Counter::kL2PartiallyHits: return "sim.l2_partially_hits";
    case Counter::kL2TotallyMisses: return "sim.l2_totally_misses";
    case Counter::kPollutionCase1: return "sim.pollution_case1";
    case Counter::kPollutionCase2: return "sim.pollution_case2";
    case Counter::kPollutionCase3: return "sim.pollution_case3";
    case Counter::kPrefetchFillsTracked: return "prefetch.fills_tracked";
    case Counter::kPrefetchFateUsedTimely: return "prefetch.fate.used_timely";
    case Counter::kPrefetchFateUsedLate: return "prefetch.fate.used_late";
    case Counter::kPrefetchFateEvictedUnused:
      return "prefetch.fate.evicted_unused";
    case Counter::kPrefetchFatePolluting: return "prefetch.fate.polluting";
    case Counter::kPrefetchFateResidentUnused:
      return "prefetch.fate.resident_unused";
    case Counter::kCount: break;
  }
  return "?";
}

const char* to_string(Gauge g) noexcept {
  switch (g) {
    case Gauge::kTraceRecordsMax: return "trace.records_max";
    case Gauge::kArenaBytesMax: return "replay.arena_bytes_max";
    case Gauge::kAdaptiveDistanceMax: return "adaptive.distance_max";
    case Gauge::kCount: break;
  }
  return "?";
}

namespace detail {
std::atomic<Session*> g_session{nullptr};
constinit thread_local Lane* tl_lane = nullptr;
}  // namespace detail

Session::Session(std::size_t lanes, Options options)
    : clock_(options.clock_mode) {
  if (lanes == 0) lanes = 1;
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    const std::string label =
        i == 0 ? std::string("main") : "worker-" + std::to_string(i);
    lanes_.emplace_back(new Lane(&clock_, static_cast<std::uint32_t>(i), label));
  }
}

Session* install(Session* session) noexcept {
#if SPF_TELEMETRY
  Session* previous =
      detail::g_session.exchange(session, std::memory_order_acq_rel);
  detail::tl_lane = session != nullptr ? session->lane(0) : nullptr;
  return previous;
#else
  (void)session;
  return nullptr;
#endif
}

MetricsSnapshot Session::snapshot() const {
  MetricsSnapshot snap;
  // Lane-id order; sums and maxes are order-independent anyway, so two runs
  // whose threads interleaved differently still merge to identical numbers.
  for (const auto& lane : lanes_) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      snap.counters[c] += lane->counter(static_cast<Counter>(c));
    }
    for (std::size_t g = 0; g < kGaugeCount; ++g) {
      const std::uint64_t v = lane->gauge(static_cast<Gauge>(g));
      if (v > snap.gauges[g]) snap.gauges[g] = v;
    }
    snap.span_events += lane->spans().size();
  }
  return snap;
}

}  // namespace spf::telemetry
