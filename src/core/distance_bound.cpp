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

std::uint32_t PhasedDistanceBound::bound_at(std::uint32_t outer_iter) const {
  std::uint32_t cap = whole.upper_limit;
  for (const PhaseDistanceBound& p : phases) {
    if (outer_iter < p.begin_iter) break;
    cap = p.upper_limit;
  }
  return cap;
}

std::uint32_t PhasedDistanceBound::min_phase_bound() const {
  std::uint32_t best = whole.upper_limit;
  for (const PhaseDistanceBound& p : phases) {
    best = std::min(best, p.upper_limit);
  }
  return best;
}

std::string PhasedDistanceBound::to_string() const {
  std::ostringstream out;
  out << "PhasedDistanceBound{" << whole.to_string() << " phases=[";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseDistanceBound& p = phases[i];
    if (i != 0) out << " ";
    out << "[" << p.begin_iter << "," << p.end_iter << ")<=" << p.upper_limit;
  }
  out << "]}";
  return out.str();
}

namespace {

// Phases with samples get the paper's per-phase cap via `cap_of`; sampled-
// less phases inherit the whole-run limit (no evidence to relax them).
template <typename CapFn>
std::vector<PhaseDistanceBound> phase_bounds_from(
    const std::vector<AffinityPhase>& phases, std::uint32_t whole_limit,
    CapFn cap_of) {
  std::vector<PhaseDistanceBound> out;
  out.reserve(phases.size());
  for (const AffinityPhase& p : phases) {
    PhaseDistanceBound b;
    b.begin_iter = p.begin_iter;
    b.end_iter = p.end_iter;
    b.min_sa = p.min_sa;
    b.upper_limit = p.samples != 0 ? cap_of(p.min_sa) : whole_limit;
    out.push_back(b);
  }
  return out;
}

}  // namespace

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
  out.phases = phase_bounds_from(
      sa.phases, out.whole.upper_limit, [](std::uint32_t min_sa) {
        return std::max<std::uint32_t>(1, min_sa / 2);
      });
  return out;
}

PhasedDistanceBound refine_phase_bounds(
    const PhasedDistanceBound& bound, const TraceBuffer& main_trace,
    const std::vector<std::uint32_t>& invocation_starts, const SpParams& params,
    const CacheGeometry& l2, const PhaseAffinityConfig& config) {
  SPF_SPAN("phase-refine");
  telemetry::count(telemetry::Counter::kRefineRuns);
  telemetry::count(telemetry::Counter::kPhaseAnalyses);
  // Same combined main+helper reference stream as refine_with_helper (see
  // the re-anchoring rationale there); the phases are detected on that
  // merged stream, so a phase's cap reflects the helper pressure *inside* it.
  MergeByIterCursor combined(
      TraceViewCursor(main_trace),
      HelperViewCursor(main_trace, params, {}, /*re_anchor=*/true));
  const PhasedSaResult sa =
      analyze_workload_sa_phased(combined, invocation_starts, l2, config);
  telemetry::count(telemetry::Counter::kAffinityPhases, sa.phases.size());
  PhasedDistanceBound refined;
  refined.whole = bound.whole;
  if (sa.whole.merged.any_saturated()) {
    refined.whole.with_helper_min_sa = sa.whole.merged.min_sa();
    refined.whole.upper_limit = std::max<std::uint32_t>(
        1, std::min(*refined.whole.with_helper_min_sa,
                    bound.whole.original_min_sa / 2));
  }
  const std::uint32_t original_half =
      std::max<std::uint32_t>(1, bound.whole.original_min_sa / 2);
  refined.phases = phase_bounds_from(
      sa.phases, refined.whole.upper_limit,
      [original_half](std::uint32_t min_sa) {
        return std::max<std::uint32_t>(1, std::min(min_sa, original_half));
      });
  return refined;
}

}  // namespace spf
