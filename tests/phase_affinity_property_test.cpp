// Property coverage for the phase-incremental Set-Affinity analyzer and the
// per-phase distance bounds built on it (spf/profile/incremental_affinity.hpp,
// spf/core/distance_bound.hpp).
//
// Three pillars:
//   * the phase partition is sound: phases are contiguous, cover the run, and
//     — because they partition the SA samples — the minimum over per-phase
//     bounds always equals the whole-run bound (capping per phase can only
//     relax quiet phases, never loosen the paper's inequality);
//   * the degenerate single-phase configuration is bit-identical to the
//     legacy whole-run analyzer (analyze_workload_sa /
//     estimate_distance_bound / refine_with_helper) — and the whole-run slice
//     of the phased result is bit-identical even when detection is on;
//   * per-phase refined bounds respect the paper's /2 inequality in every
//     phase, and the whole-run refined bound is monotone non-increasing in
//     helper pressure (more helper traffic saturates sets no later).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "spf/core/distance_bound.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/profile/incremental_affinity.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/synthetic.hpp"

namespace spf {
namespace {

CacheGeometry test_l2() { return CacheGeometry(16 * 1024, 4, 64); }

/// A trace whose per-set pressure shifts abruptly: each span streams
/// `lines_per_iter` distinct lines per outer iteration from its own base
/// address, so a wide span saturates sets in far fewer iterations than a
/// narrow one — the shape phase detection exists for.
struct FootprintSpan {
  std::uint32_t iters = 0;
  std::uint32_t lines_per_iter = 1;
};

TraceBuffer phased_trace(const std::vector<FootprintSpan>& spans,
                         const CacheGeometry& l2) {
  TraceBuffer trace;
  std::uint32_t iter = 0;
  Addr region = 0;
  for (const FootprintSpan& span : spans) {
    for (std::uint32_t i = 0; i < span.iters; ++i, ++iter) {
      for (std::uint32_t k = 0; k < span.lines_per_iter; ++k) {
        TraceRecord r;
        // Distinct line per (iteration, k) within the span: a fresh block
        // every access, so saturation time is ways / lines_per_iter.
        r.addr = region +
                 static_cast<Addr>(i * span.lines_per_iter + k) * l2.line_bytes();
        r.outer_iter = iter;
        trace.mutable_records().push_back(r);
      }
    }
    region += Addr{1} << 40;  // disjoint address region per span
  }
  return trace;
}

void expect_same_sa(const WorkloadSaResult& a, const WorkloadSaResult& b) {
  EXPECT_EQ(a.merged.per_set, b.merged.per_set);
  EXPECT_EQ(a.merged.samples, b.merged.samples);
  EXPECT_EQ(a.merged.touched_sets, b.merged.touched_sets);
  EXPECT_EQ(a.merged.accesses, b.merged.accesses);
  EXPECT_EQ(a.merged.outer_iterations, b.merged.outer_iterations);
  EXPECT_EQ(a.cumulative_fallback, b.cumulative_fallback);
  EXPECT_EQ(a.invocations_analyzed, b.invocations_analyzed);
}

void expect_contiguous_partition(const std::vector<AffinityPhase>& phases) {
  ASSERT_FALSE(phases.empty());
  EXPECT_EQ(phases.front().begin_iter, 0u);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(phases[i].index, i);
    EXPECT_LE(phases[i].begin_iter, phases[i].end_iter);
    if (i + 1 < phases.size()) {
      EXPECT_EQ(phases[i].end_iter, phases[i + 1].begin_iter);
    }
  }
}

struct Fixture {
  std::string name;
  TraceBuffer trace;
  std::vector<std::uint32_t> starts;
};

std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;

  // Two abrupt working-set shifts: narrow -> wide -> narrow. Each span is
  // its own hot-function invocation, so Set Affinity re-samples per span
  // (first-saturation mode records each set once per invocation).
  out.push_back({"phased",
                 phased_trace({{256, 1}, {256, 8}, {256, 2}}, test_l2()),
                 {0, 256, 512}});

  // Randomized pressure, one invocation.
  SyntheticConfig wcfg;
  wcfg.iterations = 4000;
  wcfg.random_reads = 8;
  wcfg.random_footprint_lines = 1 << 12;
  out.push_back({"synthetic", SyntheticWorkload(wcfg).emit_trace(), {0}});

  // Multi-invocation structured workload: per-invocation re-basing + merge.
  Em3dConfig ecfg;
  ecfg.nodes = 2000;
  ecfg.arity = 8;
  ecfg.passes = 2;
  const Em3dWorkload em3d(ecfg);
  out.push_back({"em3d", em3d.emit_trace(), em3d.invocation_starts()});
  return out;
}

// ---- partition soundness & min-over-phases --------------------------------

TEST(PhaseAffinityProperty, MinOverPhaseBoundsEqualsWholeBound) {
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE(f.name);
    for (const std::uint32_t window : {16u, 64u, 257u}) {
      SCOPED_TRACE(window);
      PhaseAffinityConfig cfg;
      cfg.window_iters = window;

      const PhasedSaResult sa =
          analyze_workload_sa_phased(f.trace, f.starts, test_l2(), cfg);
      expect_contiguous_partition(sa.phases);
      ASSERT_TRUE(sa.whole.merged.any_saturated());
      // Phases partition the samples, so the per-phase minima reconstruct
      // the whole-run minimum exactly.
      EXPECT_EQ(sa.min_sa_over_phases(), sa.whole.merged.min_sa());
      std::uint64_t total_samples = 0;
      for (const AffinityPhase& p : sa.phases) total_samples += p.samples;
      EXPECT_EQ(total_samples, sa.whole.merged.samples.size());

      const PhasedDistanceBound bound =
          estimate_phase_bounds(f.trace, f.starts, test_l2(), cfg);
      ASSERT_GE(bound.phase_count(), 1u);
      EXPECT_EQ(bound.min_phase_bound(), bound.whole.upper_limit);
      for (const PhaseDistanceBound& p : bound.phases) {
        EXPECT_GE(p.upper_limit, 1u);
        // bound_at resolves every covered iteration to its phase's cap.
        if (p.begin_iter < p.end_iter) {
          EXPECT_EQ(bound.bound_at(p.begin_iter), p.upper_limit);
        }
      }
    }
  }
}

TEST(PhaseAffinityProperty, DetectsTheInjectedShift) {
  // The wide middle span saturates sets ~8x faster than the narrow first
  // span; with one invocation per span (fresh SA sampling each) and a
  // window well under the span length the analyzer must see the shift.
  const TraceBuffer trace =
      phased_trace({{256, 1}, {256, 8}, {256, 2}}, test_l2());
  PhaseAffinityConfig cfg;
  cfg.window_iters = 32;
  const PhasedSaResult sa =
      analyze_workload_sa_phased(trace, {0, 256, 512}, test_l2(), cfg);
  EXPECT_GE(sa.phases.size(), 2u);
}

// ---- single-phase == legacy -----------------------------------------------

TEST(PhaseAffinityProperty, SinglePhaseConfigIsBitIdenticalToLegacy) {
  for (const Fixture& f : fixtures()) {
    SCOPED_TRACE(f.name);
    PhaseAffinityConfig off;
    off.detect_phases = false;

    const WorkloadSaResult legacy =
        analyze_workload_sa(f.trace, f.starts, test_l2());
    const PhasedSaResult single =
        analyze_workload_sa_phased(f.trace, f.starts, test_l2(), off);
    EXPECT_EQ(single.phases.size(), 1u);
    expect_same_sa(single.whole, legacy);

    // The whole-run slice is the same merge regardless of detection — phase
    // tracking is a pure observer of the sample stream.
    const PhasedSaResult multi =
        analyze_workload_sa_phased(f.trace, f.starts, test_l2(), {});
    expect_same_sa(multi.whole, legacy);

    const DistanceBound base =
        estimate_distance_bound(f.trace, f.starts, test_l2());
    const PhasedDistanceBound phased =
        estimate_phase_bounds(f.trace, f.starts, test_l2(), off);
    EXPECT_EQ(phased.whole.original_min_sa, base.original_min_sa);
    EXPECT_EQ(phased.whole.upper_limit, base.upper_limit);
    EXPECT_EQ(phased.phase_count(), 1u);
    // One phase spanning the run inherits exactly the whole-run cap.
    EXPECT_EQ(phased.phases.front().upper_limit, base.upper_limit);

    const SpParams params = SpParams::from_distance_rp(4, 0.5);
    const DistanceBound refined_legacy =
        refine_with_helper(base, f.trace, f.starts, params, test_l2());
    const PhasedDistanceBound refined_phased = refine_phase_bounds(
        phased, f.trace, f.starts, params, test_l2(), off);
    EXPECT_EQ(refined_phased.whole.original_min_sa,
              refined_legacy.original_min_sa);
    EXPECT_EQ(refined_phased.whole.with_helper_min_sa,
              refined_legacy.with_helper_min_sa);
    EXPECT_EQ(refined_phased.whole.upper_limit, refined_legacy.upper_limit);
    EXPECT_EQ(refined_phased.phase_count(), 1u);
  }
}

// ---- helper pressure ------------------------------------------------------

TEST(PhaseAffinityProperty, RefinedBoundsMonotoneInHelperPressure) {
  const TraceBuffer trace =
      phased_trace({{512, 2}, {512, 6}}, test_l2());
  const std::vector<std::uint32_t> starts = {0, 512};
  const PhasedDistanceBound base =
      estimate_phase_bounds(trace, starts, test_l2());
  const std::uint32_t original_half =
      std::max(1u, base.whole.original_min_sa / 2);

  std::uint32_t prev_whole = UINT32_MAX;
  for (const double rp : {0.25, 0.5, 1.0}) {
    SCOPED_TRACE(rp);
    const SpParams params = SpParams::from_distance_rp(4, rp);
    const PhasedDistanceBound refined =
        refine_phase_bounds(base, trace, starts, params, test_l2());

    // More helper traffic saturates every set no later, so the measured
    // with-helper bound can only tighten as RP grows.
    EXPECT_LE(refined.whole.upper_limit, prev_whole);
    prev_whole = refined.whole.upper_limit;

    // The paper's /2 inequality holds inside every phase: no phase cap ever
    // exceeds half the original whole-run Set Affinity (or 1, the floor).
    for (const PhaseDistanceBound& p : refined.phases) {
      EXPECT_GE(p.upper_limit, 1u);
      EXPECT_LE(p.upper_limit, original_half);
    }
    EXPECT_EQ(refined.min_phase_bound(), refined.whole.upper_limit);
  }
}

// ---- config validation ----------------------------------------------------

TEST(PhaseAffinityConfigTest, ValidateRejectsBadConfigs) {
  PhaseAffinityConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
  cfg.window_iters = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg = PhaseAffinityConfig{};
  cfg.hysteresis = -0.5;
  EXPECT_NE(cfg.validate(), "");
  cfg = PhaseAffinityConfig{};
  cfg.ema_alpha = 0.0;
  EXPECT_NE(cfg.validate(), "");
  cfg.ema_alpha = 1.5;
  EXPECT_NE(cfg.validate(), "");
}

}  // namespace
}  // namespace spf
