// Unit tests for the SP core: parameter selection, helper-thread trace
// synthesis (Fig. 1(b) semantics), distance bound, and the experiment
// orchestrator's bookkeeping.
#include <stdexcept>

#include <gtest/gtest.h>

#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {
namespace {

TEST(SpParamsTest, RpAndRound) {
  const SpParams p{.a_ski = 30, .a_pre = 10};
  EXPECT_EQ(p.round(), 40u);
  EXPECT_DOUBLE_EQ(p.rp(), 0.25);
  EXPECT_FALSE(p.to_string().empty());
}

TEST(SpParamsTest, FromDistanceRpHalfMeansEqualSkipAndPre) {
  // Paper: CALR ~ 0 -> RP 0.5 -> A_SKI = A_PRE.
  const SpParams p = SpParams::from_distance_rp(32, 0.5);
  EXPECT_EQ(p.a_ski, 32u);
  EXPECT_EQ(p.a_pre, 32u);
  EXPECT_DOUBLE_EQ(p.rp(), 0.5);
}

TEST(SpParamsTest, FromDistanceRpOneIsConventionalHelper) {
  // Paper: CALR >= 1 -> RP 1 -> A_SKI = 0 (prefetch everything).
  const SpParams p = SpParams::from_distance_rp(32, 1.0);
  EXPECT_EQ(p.a_ski, 0u);
  EXPECT_GE(p.a_pre, 1u);
  EXPECT_DOUBLE_EQ(p.rp(), 1.0);
}

TEST(SpParamsTest, FromDistanceRpQuarter) {
  const SpParams p = SpParams::from_distance_rp(30, 0.25);
  EXPECT_EQ(p.a_ski, 30u);
  EXPECT_EQ(p.a_pre, 10u);
}

TEST(SpParamsTest, ZeroDistanceDegeneratesGracefully) {
  const SpParams p = SpParams::from_distance_rp(0, 0.5);
  EXPECT_GE(p.a_pre, 1u);
  EXPECT_EQ(p.a_ski, 0u);
}

TEST(SpParamsTest, RpFromCalrMatchesPaperAnchors) {
  EXPECT_DOUBLE_EQ(SpParams::rp_from_calr(0.0), 0.5);
  EXPECT_DOUBLE_EQ(SpParams::rp_from_calr(1.0), 1.0);
  EXPECT_DOUBLE_EQ(SpParams::rp_from_calr(5.0), 1.0);   // clamped
  EXPECT_DOUBLE_EQ(SpParams::rp_from_calr(-1.0), 0.5);  // clamped
  EXPECT_DOUBLE_EQ(SpParams::rp_from_calr(0.5), 0.75);
}

// A synthetic hot loop: per outer iteration one spine read, one
// address-generation read, two delinquent reads, one write.
TraceBuffer synthetic_loop(std::uint32_t iters) {
  TraceBuffer t;
  for (std::uint32_t i = 0; i < iters; ++i) {
    const Addr base = static_cast<Addr>(i) * 1024;
    t.emit(base, i, AccessKind::kRead, 0, kFlagSpine, 1);
    t.emit(base + 128, i, AccessKind::kRead, 1, 0, 1);
    t.emit(base + 256, i, AccessKind::kRead, 2, kFlagDelinquent, 1);
    t.emit(base + 512, i, AccessKind::kRead, 3, kFlagDelinquent, 1);
    t.emit(base, i, AccessKind::kWrite, 4, 0, 1);
  }
  return t;
}

TEST(HelperGenTest, SkipPhaseKeepsOnlySpine) {
  const TraceBuffer main_t = synthetic_loop(8);
  // Round = 4+4: iters 0-3 are skip, 4-7 pre-execute.
  const TraceBuffer helper =
      make_helper_trace(main_t, SpParams{.a_ski = 4, .a_pre = 4});
  for (const TraceRecord& r : helper) {
    if (r.outer_iter < 4) {
      EXPECT_TRUE(r.is_spine()) << "non-spine record in skip phase";
    }
  }
  // Skip phase: 4 spine records; pre-execute: 4 iters x 4 reads.
  EXPECT_EQ(helper.size(), 4u + 16u);
}

TEST(HelperGenTest, WritesNeverAppear) {
  const TraceBuffer helper =
      make_helper_trace(synthetic_loop(20), SpParams{.a_ski = 2, .a_pre = 3});
  for (const TraceRecord& r : helper) {
    EXPECT_NE(r.kind(), AccessKind::kWrite);
  }
}

TEST(HelperGenTest, RoundStructureRepeats) {
  const TraceBuffer helper =
      make_helper_trace(synthetic_loop(40), SpParams{.a_ski = 3, .a_pre = 2});
  for (const TraceRecord& r : helper) {
    const std::uint32_t pos = r.outer_iter % 5;
    if (pos < 3) {
      EXPECT_TRUE(r.is_spine());
    }
  }
}

TEST(HelperGenTest, Rp1KeepsEveryIterationsReads) {
  const TraceBuffer main_t = synthetic_loop(10);
  const TraceBuffer helper =
      make_helper_trace(main_t, SpParams{.a_ski = 0, .a_pre = 5});
  // Conventional helper threading: all 4 reads of all 10 iterations.
  EXPECT_EQ(helper.size(), 40u);
}

TEST(HelperGenTest, PrefetchInstructionOptionConvertsDelinquentLoads) {
  HelperGenOptions opt;
  opt.use_prefetch_instructions = true;
  const TraceBuffer helper = make_helper_trace(
      synthetic_loop(8), SpParams{.a_ski = 4, .a_pre = 4}, opt);
  bool saw_prefetch = false;
  for (const TraceRecord& r : helper) {
    if (r.is_delinquent()) {
      EXPECT_EQ(r.kind(), AccessKind::kPrefetch);
      saw_prefetch = true;
    } else {
      EXPECT_EQ(r.kind(), AccessKind::kRead);
    }
  }
  EXPECT_TRUE(saw_prefetch);
}

TEST(HelperGenTest, HelperComputeGapApplied) {
  HelperGenOptions opt;
  opt.helper_compute_gap = 7;
  const TraceBuffer helper = make_helper_trace(
      synthetic_loop(4), SpParams{.a_ski = 0, .a_pre = 2}, opt);
  for (const TraceRecord& r : helper) EXPECT_EQ(r.compute_gap, 7u);
}

TEST(MergeTracesTest, OrderedByOuterIter) {
  TraceBuffer a;
  a.emit(1, 0, AccessKind::kRead, 0);
  a.emit(2, 2, AccessKind::kRead, 0);
  TraceBuffer b;
  b.emit(3, 1, AccessKind::kRead, 0);
  b.emit(4, 2, AccessKind::kRead, 0);
  const TraceBuffer merged =
      materialize(MergeByIterCursor(TraceViewCursor(a), TraceViewCursor(b)));
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].addr, 1u);
  EXPECT_EQ(merged[1].addr, 3u);
  EXPECT_EQ(merged[2].addr, 2u);  // ties: a first
  EXPECT_EQ(merged[3].addr, 4u);
}

// A loop whose per-set distinct-block arrival rate is one line every 2
// iterations against a 2-way cache: SA = 4 per set.
TraceBuffer saturating_loop(std::uint32_t iters, const CacheGeometry& g) {
  TraceBuffer t;
  for (std::uint32_t i = 0; i < iters; ++i) {
    // One fresh line per iteration, cycling through sets: set = i % sets,
    // tag grows every wrap.
    const std::uint64_t set = i % g.num_sets();
    const std::uint64_t tag = i / g.num_sets();
    t.emit((set + g.num_sets() * tag) * 64, i, AccessKind::kRead, 0,
           kFlagDelinquent, 1);
  }
  return t;
}

TEST(DistanceBoundTest, HalfOriginalMinSa) {
  const CacheGeometry g(1024, 2, 64);  // 8 sets x 2 ways
  // One new line per iteration round-robin over 8 sets: each set saturates
  // at its 2nd distinct block. Set 0: iters 0 and 8 -> SA 9. Min over sets
  // is set 0's... all sets: set s saturates at iter s+8 -> SA s+9; min = 9.
  const TraceBuffer t = saturating_loop(64, g);
  const DistanceBound bound = estimate_distance_bound(t, {0}, g);
  EXPECT_EQ(bound.original_min_sa, 9u);
  EXPECT_EQ(bound.upper_limit, 4u);
  EXPECT_TRUE(bound.allows(3));
  EXPECT_FALSE(bound.allows(4));
  EXPECT_FALSE(bound.to_string().empty());
}

TEST(DistanceBoundTest, RefineWithHelperTightens) {
  const CacheGeometry g(1024, 2, 64);
  const TraceBuffer t = saturating_loop(64, g);
  const DistanceBound base = estimate_distance_bound(t, {0}, g);
  const DistanceBound refined = refine_with_helper(
      base, t, {0}, SpParams{.a_ski = 2, .a_pre = 2}, g);
  ASSERT_TRUE(refined.with_helper_min_sa.has_value());
  // The combined stream doubles per-set pressure in pre-execute rounds:
  // with-helper SA must not exceed the original.
  EXPECT_LE(*refined.with_helper_min_sa, base.original_min_sa);
  EXPECT_LE(refined.upper_limit, base.upper_limit);
  EXPECT_GE(refined.upper_limit, 1u);
}

TEST(DistanceBoundDeathTest, NoSaturationIsAnError) {
  const CacheGeometry g(1024, 2, 64);
  TraceBuffer t;
  t.emit(0, 0, AccessKind::kRead, 0);
  EXPECT_THROW((void)estimate_distance_bound(t, {0}, g), std::runtime_error);
  EXPECT_THROW((void)estimate_phase_bounds(t, {0}, g), std::runtime_error);
  try {
    (void)estimate_phase_bounds(t, {0}, g);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("saturates"), std::string::npos);
  }
}

TEST(ExperimentTest, SummariesAndNormalizationArithmetic) {
  SpRunSummary orig;
  orig.runtime = 1000;
  orig.totally_hits = 50;
  orig.partially_hits = 10;
  orig.totally_misses = 90;
  SpRunSummary sp;
  sp.runtime = 600;
  sp.totally_hits = 110;
  sp.partially_hits = 25;
  sp.totally_misses = 15;
  const SpComparison cmp{.original = orig, .sp = sp};
  EXPECT_DOUBLE_EQ(cmp.norm_runtime(), 0.6);
  EXPECT_DOUBLE_EQ(cmp.norm_hot_misses(), 15.0 / 90.0);
  EXPECT_DOUBLE_EQ(cmp.norm_memory_accesses(), 40.0 / 100.0);
  EXPECT_DOUBLE_EQ(cmp.delta_totally_hit(), 0.6);
  EXPECT_DOUBLE_EQ(cmp.delta_totally_miss(), -0.75);
  EXPECT_DOUBLE_EQ(cmp.delta_partially_hit(), 0.15);
  EXPECT_FALSE(cmp.to_string().empty());
}

TEST(ExperimentTest, SpBeatsOriginalOnPointerChase) {
  // End-to-end sanity on a small synthetic loop with a small L2.
  const CacheGeometry g(32 * 1024, 16, 64);
  TraceBuffer t = saturating_loop(4000, g);
  SpExperimentConfig cfg;
  cfg.sim.l2 = g;
  cfg.sim.hw_prefetch = false;
  cfg.baseline_hw_prefetch = false;
  cfg.params = SpParams::from_distance_rp(4, 0.5);
  const SpComparison cmp = run_sp_experiment(t, cfg);
  EXPECT_LT(cmp.norm_runtime(), 1.0);
  EXPECT_LT(cmp.sp.totally_misses, cmp.original.totally_misses);
}

TEST(ExperimentTest, OriginalRunHasNoHelperArtifacts) {
  const CacheGeometry g(32 * 1024, 16, 64);
  TraceBuffer t = saturating_loop(500, g);
  SpExperimentConfig cfg;
  cfg.sim.l2 = g;
  const SpRunSummary orig = run_original(t, cfg);
  EXPECT_EQ(orig.helper_finish, 0u);
  EXPECT_EQ(orig.pollution.case2_helper_displaced, 0u);
}

}  // namespace
}  // namespace spf
