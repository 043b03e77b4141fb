// Typed counter / gauge registry.
//
// Counters and gauges are closed enums rather than string-keyed maps: the
// per-thread accumulation slot is an array index (one add, no hashing, no
// allocation on the hot path) and the merge order is the enum declaration
// order — the same on every run, which keeps the metrics dump deterministic.
//
// Counter merge: sum across lanes (order-independent). Gauge merge: max
// across lanes (also order-independent; a "last writer wins" gauge would let
// thread scheduling leak into the artifact).
#pragma once

#include <cstddef>
#include <cstdint>

namespace spf::telemetry {

enum class Counter : std::uint16_t {
  // orchestrate
  kSweepCells,        // cells completed (ok) by run_sweep
  kSweepCellsFailed,  // cells that finished with a captured error
  // trace pipeline
  kTraceEmissions,   // workload traces actually emitted (memo misses + unkeyed)
  kTraceMemoHits,    // trace_for lookups answered from the memo
  kTraceMemoMisses,  // trace_for lookups that had to emit
  // core replay
  kBaselineRuns,   // ExperimentContext::run_original calls
  kReplayRuns,     // ExperimentContext::run_sp_once calls
  kReplayRecords,  // main-trace records fed to the simulator (both kinds)
  kHelperRecords,  // helper records synthesized inside SP replay
  // distance-bound analysis
  kDistanceBounds,  // estimate_distance_bound calls
  kRefineRuns,      // refine_with_helper calls
  // phase-incremental Set-Affinity analysis
  // (spf/profile/incremental_affinity.hpp)
  kPhaseAnalyses,   // phased analyses completed (estimate or refine)
  kAffinityPhases,  // phases those analyses detected (>= 1 each)
  // adaptive-distance interval replay (spf/core/adaptive.hpp)
  kAdaptiveRuns,       // run_adaptive calls
  kAdaptiveIntervals,  // observation intervals replayed
  kAdaptiveIncreases,  // controller actions by kind
  kAdaptiveDecreases,
  kAdaptiveHolds,
  kAdaptiveReclamps,  // per-phase ceiling re-clamps applied at interval
                      // boundaries (phase_caps engaged)
  // simulator (bulk-added once per run from the SimResult; never on the
  // per-access hot path)
  kL2Lookups,
  kL2TotallyHits,
  kL2PartiallyHits,
  kL2TotallyMisses,
  kPollutionCase1,
  kPollutionCase2,
  kPollutionCase3,
  // prefetch-lifecycle provenance (spf/sim/provenance.hpp; zero unless
  // SimConfig::provenance was set for the surfaced run)
  kPrefetchFillsTracked,      // helper/hw fills installed into L2
  kPrefetchFateUsedTimely,    // the five fates partition the tracked fills
  kPrefetchFateUsedLate,
  kPrefetchFateEvictedUnused,
  kPrefetchFatePolluting,
  kPrefetchFateResidentUnused,
  kCount
};

enum class Gauge : std::uint16_t {
  kTraceRecordsMax,     // largest workload trace observed (records)
  kArenaBytesMax,       // largest per-context arena footprint observed
  kAdaptiveDistanceMax, // largest distance the adaptive controller reached
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount = static_cast<std::size_t>(Gauge::kCount);

/// Stable dotted names ("sweep.cells", "sim.l2_totally_hits", ...) used as
/// the JSONL metric keys; exporters iterate the enums in declaration order.
[[nodiscard]] const char* to_string(Counter c) noexcept;
[[nodiscard]] const char* to_string(Gauge g) noexcept;

}  // namespace spf::telemetry
