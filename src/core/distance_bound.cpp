#include "spf/core/distance_bound.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "spf/core/helper_gen.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/telemetry/telemetry.hpp"

namespace spf {
namespace {

constexpr const char* kNoSaturation =
    "no cache set saturates: the working set fits in the cache and prefetch "
    "distance is unconstrained by pollution";

}  // namespace

std::string DistanceBound::to_string() const {
  std::ostringstream out;
  out << "DistanceBound{original_min_sa=" << original_min_sa;
  if (with_helper_min_sa) out << " with_helper_min_sa=" << *with_helper_min_sa;
  out << " upper_limit=" << upper_limit << "}";
  return out.str();
}

DistanceBound estimate_distance_bound(
    const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& l2) {
  SPF_SPAN("distance-bound");
  telemetry::count(telemetry::Counter::kDistanceBounds);
  const WorkloadSaResult sa =
      analyze_workload_sa(main_trace, invocation_starts, l2);
  if (!sa.merged.any_saturated()) throw std::runtime_error(kNoSaturation);
  DistanceBound bound;
  bound.original_min_sa = sa.merged.min_sa();
  bound.upper_limit = std::max<std::uint32_t>(1, bound.original_min_sa / 2);
  return bound;
}

DistanceBound refine_with_helper(
    const DistanceBound& bound, const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const SpParams& params,
    const CacheGeometry& l2) {
  SPF_SPAN("refine");
  telemetry::count(telemetry::Counter::kRefineRuns);
  // The paper's "Set Affinity with Helper Thread" is measured over the
  // combined reference stream of main thread and helper, with the helper's
  // records re-anchored to the main-thread iteration at which they actually
  // hit the shared cache: the helper touches a pre-executed iteration's data
  // while the main thread is still ~A_SKI iterations behind, so the combined
  // stream reflects the doubled per-set pressure the
  // "Set Affinity with Helper Thread <= Original/2" formula captures. The
  // helper view and the merge are lazy cursor adaptors: no trace record is
  // ever stored.
  MergeByIterCursor combined(
      TraceViewCursor(main_trace),
      HelperViewCursor(main_trace, params, {}, /*re_anchor=*/true));
  const WorkloadSaResult sa =
      analyze_workload_sa(combined, invocation_starts, l2);
  DistanceBound refined = bound;
  if (sa.merged.any_saturated()) {
    refined.with_helper_min_sa = sa.merged.min_sa();
    refined.upper_limit =
        std::max<std::uint32_t>(1, std::min(*refined.with_helper_min_sa,
                                            bound.original_min_sa / 2));
  }
  return refined;
}

PhasedDistanceBound estimate_phase_bounds(
    const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const CacheGeometry& l2,
    const PhaseAffinityConfig& config) {
  SPF_SPAN("phase-bound");
  telemetry::count(telemetry::Counter::kDistanceBounds);
  telemetry::count(telemetry::Counter::kPhaseAnalyses);
  const PhasedSaResult sa =
      analyze_workload_sa_phased(main_trace, invocation_starts, l2, config);
  if (!sa.whole.merged.any_saturated()) {
    throw std::runtime_error(kNoSaturation);
  }
  telemetry::count(telemetry::Counter::kAffinityPhases, sa.phases.size());
  PhasedDistanceBound out;
  out.whole.original_min_sa = sa.whole.merged.min_sa();
  out.whole.upper_limit =
      std::max<std::uint32_t>(1, out.whole.original_min_sa / 2);
  // Phases with samples get the paper's cap; sample-less phases inherit the
  // whole-run limit (no evidence to relax them).
  out.phases.reserve(sa.phases.size());
  for (const AffinityPhase& p : sa.phases) {
    out.phases.push_back(PhaseDistanceBound{
        .begin_iter = p.begin_iter,
        .end_iter = p.end_iter,
        .min_sa = p.min_sa,
        .upper_limit = p.samples != 0
                           ? std::max<std::uint32_t>(1, p.min_sa / 2)
                           : out.whole.upper_limit});
  }
  return out;
}

}  // namespace spf
