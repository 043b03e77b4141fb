// Tests for the HEALTH workload (tree of villages with patient lists).
#include <gtest/gtest.h>

#include <set>

#include "spf/core/experiment.hpp"
#include "spf/profile/pattern.hpp"
#include "spf/workloads/health.hpp"

namespace spf {
namespace {

HealthConfig small() {
  HealthConfig c;
  c.depth = 4;  // 85 villages
  c.mean_patients = 8;
  c.steps = 3;
  return c;
}

TEST(HealthTest, VillageCountMatchesGeometricSum) {
  EXPECT_EQ(HealthConfig{.depth = 1}.villages(), 1u);
  EXPECT_EQ(HealthConfig{.depth = 2}.villages(), 5u);
  EXPECT_EQ(HealthConfig{.depth = 3}.villages(), 21u);
  EXPECT_EQ(HealthConfig{.depth = 4}.villages(), 85u);
  EXPECT_EQ(HealthConfig{.depth = 5}.villages(), 341u);
}

TEST(HealthTest, IterationsCoverAllVillageVisits) {
  HealthWorkload w(small());
  EXPECT_EQ(w.outer_iterations(), 85u * 3u);
  const TraceBuffer t = w.emit_trace();
  EXPECT_EQ(t.outer_iterations(), 85u * 3u);
  const auto starts = w.invocation_starts();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[1], 85u);
}

TEST(HealthTest, EveryIterationVisitsExactlyOneVillageSpine) {
  HealthWorkload w(small());
  const TraceBuffer t = w.emit_trace();
  std::map<std::uint32_t, int> spines_per_iter;
  for (const TraceRecord& r : t) {
    if (r.site == kHealthVillage && r.is_spine()) {
      spines_per_iter[r.outer_iter]++;
    }
  }
  ASSERT_EQ(spines_per_iter.size(), w.outer_iterations());
  for (const auto& [iter, count] : spines_per_iter) {
    EXPECT_EQ(count, 1) << "iteration " << iter;
  }
}

TEST(HealthTest, EachStepVisitsEveryVillageOnce) {
  HealthWorkload w(small());
  const TraceBuffer t = w.emit_trace();
  // Within step 0 (iters [0,85)), the 85 spine reads must touch 85 distinct
  // village addresses.
  std::set<Addr> villages;
  for (const TraceRecord& r : t) {
    if (r.outer_iter < 85 && r.site == kHealthVillage && r.is_spine()) {
      villages.insert(r.addr);
    }
  }
  EXPECT_EQ(villages.size(), 85u);
}

TEST(HealthTest, PatientLoadsAreIrregularDelinquent) {
  HealthWorkload w(small());
  const TraceBuffer t = w.emit_trace();
  const PatternReport patterns = classify_patterns(t);
  EXPECT_EQ(patterns.per_site.at(kHealthPatient).pattern,
            AccessPattern::kIrregular);
  for (const TraceRecord& r : t) {
    if (r.site == kHealthPatient) {
      EXPECT_TRUE(r.is_delinquent());
      EXPECT_EQ(r.kind(), AccessKind::kRead);
    }
  }
}

TEST(HealthTest, ReferralsWriteTheParentVillage) {
  HealthWorkload w(small());
  const TraceBuffer t = w.emit_trace();
  std::uint64_t referrals = 0;
  for (const TraceRecord& r : t) {
    if (r.site == kHealthReferral) {
      EXPECT_EQ(r.kind(), AccessKind::kWrite);
      ++referrals;
    }
  }
  // ~10% of ~8 patients per visit across 255 visits: hundreds, not zero.
  EXPECT_GT(referrals, 50u);
}

TEST(HealthTest, Deterministic) {
  const TraceBuffer a = HealthWorkload(small()).emit_trace();
  const TraceBuffer b = HealthWorkload(small()).emit_trace();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 83) EXPECT_EQ(a[i], b[i]);
}

TEST(HealthTest, SpHelpsThePatientWalk) {
  HealthConfig c;
  c.depth = 5;
  c.mean_patients = 12;
  c.steps = 4;
  HealthWorkload w(c);
  const TraceBuffer trace = w.emit_trace();
  SpExperimentConfig cfg;
  cfg.sim.l2 = CacheGeometry(128 * 1024, 16, 64);
  cfg.params = SpParams::from_distance_rp(8, 0.5);
  const SpComparison cmp = run_sp_experiment(trace, cfg);
  EXPECT_LT(cmp.norm_runtime(), 0.95);
  EXPECT_LT(cmp.sp.totally_misses, cmp.original.totally_misses);
}

}  // namespace
}  // namespace spf
