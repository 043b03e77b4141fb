// Probe pass: one timed call of each component on one input's own stream,
// for the layers the ops reach only inside the simulator or the advisor.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "spf/cache/cache.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/profile/calr.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/profile/pattern.hpp"
#include "spf/profile/phase.hpp"

namespace perfbench {
namespace {

using namespace spf;

/// Helper parameters of the probe's simulator runs and helper cursor.
constexpr std::uint32_t kProbeDistance = 16;
constexpr double kProbeRp = 0.5;
/// Trace prefix and repetitions of the cold-context measurement.
constexpr std::size_t kColdContextRecords = 1 << 16;
constexpr int kColdContextReps = 5;

/// Standalone state-model pass: access every record's line, fill on miss.
/// Returns the hit count; `miss`, when non-null, receives one flag per record.
std::uint64_t cache_pass(const TraceBuffer& trace,
                         const CacheGeometry& geometry,
                         std::vector<std::uint8_t>* miss) {
  Cache cache(geometry, ReplacementKind::kLru);
  std::uint64_t hits = 0;
  Cycle now = 0;
  for (const TraceRecord& r : trace.records()) {
    const LineAddr line = geometry.line_of(r.addr);
    const bool hit = cache.access(line, r.kind(), now);
    if (hit) {
      ++hits;
    } else {
      (void)cache.fill(line, FillOrigin::kDemand, 0, now);
    }
    if (miss != nullptr) miss->push_back(hit ? 0 : 1);
    ++now;
  }
  return hits;
}

}  // namespace

void count_provenance(Scope& span, const ProvenanceSummary& p) {
  span.count("prov.tracked_fills", static_cast<double>(p.tracked_fills));
  span.count("prov.used_timely", static_cast<double>(p.used_timely));
  span.count("prov.used_late", static_cast<double>(p.used_late));
  span.count("prov.polluting", static_cast<double>(p.polluting));
}

void probe_input(SpanLog& spans, const std::string& input,
                 const TraceBuffer& trace,
                 const std::vector<std::uint32_t>& invocation_starts,
                 const CacheGeometry& l2) {
  Scope probe(&spans, "probe." + input);
  const auto records = static_cast<double>(trace.size());
  const SpParams params = SpParams::from_distance_rp(kProbeDistance, kProbeRp);

  {
    Scope span(&spans, "core.HelperViewCursor.fill");
    HelperViewCursor cursor(trace, params);
    std::vector<TraceRecord> window(4096);
    std::uint64_t served = 0;
    while (const std::size_t n = cursor.fill(window.data(), window.size())) {
      served += n;
    }
    span.count("records", records);
    span.count("helper_records", static_cast<double>(served));
  }

  const CacheGeometry l1 = CacheGeometry::core2_l1d();
  {
    Scope span(&spans, "cache.l1_pass");
    span.count("hits", static_cast<double>(cache_pass(trace, l1, nullptr)));
    span.count("accesses", records);
  }
  {
    Scope span(&spans, "cache.l2_pass");
    span.count("hits", static_cast<double>(cache_pass(trace, l2, nullptr)));
    span.count("accesses", records);
  }

  // The prefetchers train on L2 misses; flags come from an untimed pass.
  std::vector<std::uint8_t> l2_miss;
  l2_miss.reserve(trace.size());
  (void)cache_pass(trace, l2, &l2_miss);
  {
    Scope span(&spans, "prefetch.CorePrefetchers.observe");
    CorePrefetchers prefetchers(l2.line_bytes());
    std::vector<LineAddr> candidates;
    std::uint64_t total = 0;
    const auto recs = trace.records();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      candidates.clear();
      prefetchers.observe(
          PrefetchObservation{.addr = recs[i].addr,
                              .site = recs[i].site,
                              .was_miss = l2_miss[i] != 0},
          candidates);
      total += candidates.size();
    }
    span.count("records", records);
    span.count("candidates", static_cast<double>(total));
  }

  {
    Scope span(&spans, "profile.classify_patterns");
    (void)classify_patterns(trace,
                            PatternConfig{.line_bytes = l2.line_bytes()});
    span.count("records", records);
  }
  {
    Scope span(&spans, "profile.detect_phases");
    (void)detect_phases(trace, l2);
    span.count("records", records);
  }
  {
    Scope span(&spans, "profile.estimate_calr");
    CalrConfig calr;
    calr.l2 = l2;
    (void)estimate_calr(trace, calr);
    span.count("records", records);
  }
  {
    Scope span(&spans, "profile.analyze_workload_sa");
    (void)analyze_workload_sa(trace, invocation_starts, l2);
    span.count("records", records);
  }
  PhasedDistanceBound bound;
  {
    Scope span(&spans, "core.estimate_phase_bounds");
    bound = estimate_phase_bounds(trace, invocation_starts, l2);
    span.count("records", records);
  }
  {
    Scope span(&spans, "core.refine_with_helper");
    (void)refine_with_helper(bound.whole, trace, invocation_starts, params, l2);
    span.count("records", records);
  }

  SpExperimentConfig cfg;
  cfg.sim.l2 = l2;
  cfg.params = params;
  {
    // Cold-context cost: the same short run on a fresh context (construction
    // included) and on a warm one, alternated. The run is a trace prefix so
    // that replay noise does not swamp the construction cost.
    const auto head = trace.records().first(
        std::min<std::size_t>(trace.size(), kColdContextRecords));
    const TraceBuffer prefix(
        std::vector<TraceRecord>(head.begin(), head.end()));
    ExperimentContext warm;
    (void)warm.run_sp_once(prefix, cfg);
    for (int rep = 0; rep < kColdContextReps; ++rep) {
      {
        Scope span(&spans, "probe.fresh_context.run_sp_once");
        ExperimentContext fresh;
        (void)fresh.run_sp_once(prefix, cfg);
        span.count("records", static_cast<double>(prefix.size()));
      }
      Scope span(&spans, "probe.warm_context.run_sp_once");
      (void)warm.run_sp_once(prefix, cfg);
      span.count("records", static_cast<double>(prefix.size()));
    }
  }
  ExperimentContext warm;
  (void)warm.run_sp_once(trace, cfg);
  {
    Scope span(&spans, "probe.run_sp_once");
    (void)warm.run_sp_once(trace, cfg);
    span.count("records", records);
  }
  {
    Scope span(&spans, "probe.run_original");
    (void)warm.run_original(trace, cfg);
    span.count("records", records);
  }
  {
    SpExperimentConfig with_provenance = cfg;
    with_provenance.sim.provenance = true;
    Scope span(&spans, "probe.provenance.run_sp_once");
    const SpRunSummary sp = warm.run_sp_once(trace, with_provenance);
    span.count("records", records);
    count_provenance(span, sp.provenance);
  }
}

}  // namespace perfbench
