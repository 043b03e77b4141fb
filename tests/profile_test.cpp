// Unit tests for the profiling layer: Set Affinity (paper Fig. 3), burst
// sampling, phase detection, CALR estimation, invocation-aware analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "spf/common/rng.hpp"
#include "spf/profile/calr.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/profile/phase.hpp"
#include "spf/profile/sampling.hpp"
#include "spf/profile/set_affinity.hpp"

namespace spf {
namespace {

// 8 sets x 2 ways of 64B lines.
CacheGeometry tiny() { return CacheGeometry(1024, 2, 64); }

Addr addr_in_set(std::uint64_t set, std::uint64_t tag) {
  return (set + 8 * tag) * 64;
}

TEST(SetAffinityTest, RecordsIterationCountAtSaturation) {
  SetAffinityAnalyzer analyzer(tiny());
  // Set 3 receives its 1st distinct block at iter 0, 2nd (== ways) at iter 4.
  analyzer.observe(addr_in_set(3, 0), 0);
  analyzer.observe(addr_in_set(3, 0), 2);  // repeat: no new block
  analyzer.observe(addr_in_set(3, 1), 4);  // saturates here
  const SetAffinityResult r = analyzer.finish();
  ASSERT_EQ(r.per_set.size(), 1u);
  EXPECT_EQ(r.per_set.at(3), 5u);  // iteration count is 1-based
  EXPECT_EQ(r.min_sa(), 5u);
  EXPECT_EQ(r.max_sa(), 5u);
  EXPECT_EQ(r.touched_sets, 1u);
}

TEST(SetAffinityTest, UnsaturatedSetsProduceNoSamples) {
  SetAffinityAnalyzer analyzer(tiny());
  analyzer.observe(addr_in_set(1, 0), 0);
  analyzer.observe(addr_in_set(2, 0), 1);
  const SetAffinityResult r = analyzer.finish();
  EXPECT_FALSE(r.any_saturated());
  EXPECT_EQ(r.touched_sets, 2u);
}

TEST(SetAffinityTest, FirstSaturationModeRecordsOncePerSet) {
  SetAffinityAnalyzer analyzer(tiny(), SetAffinityMode::kFirstSaturation);
  for (std::uint32_t tag = 0; tag < 10; ++tag) {
    analyzer.observe(addr_in_set(0, tag), tag);
  }
  const SetAffinityResult r = analyzer.finish();
  EXPECT_EQ(r.samples.size(), 1u);
  EXPECT_EQ(r.per_set.at(0), 2u);  // saturated at the 2nd distinct block
}

TEST(SetAffinityTest, RecurrentModeMeasuresOngoingRate) {
  SetAffinityAnalyzer analyzer(tiny(), SetAffinityMode::kRecurrent);
  // One new block to set 0 every iteration: window restarts after each
  // saturation, so samples are the per-window distances.
  for (std::uint32_t tag = 0; tag < 8; ++tag) {
    analyzer.observe(addr_in_set(0, tag), tag);
  }
  const SetAffinityResult r = analyzer.finish();
  ASSERT_EQ(r.samples.size(), 4u);  // 8 blocks / 2 ways
  EXPECT_EQ(r.samples[0], 2u);
  EXPECT_EQ(r.samples[1], 2u);  // re-based to the window start
}

TEST(SetAffinityTest, DistributionQuantiles) {
  SetAffinityAnalyzer analyzer(tiny());
  // Set s saturates at iteration s+2 (two distinct blocks at iters 0, s+1).
  for (std::uint64_t s = 0; s < 8; ++s) {
    analyzer.observe(addr_in_set(s, 0), 0);
    analyzer.observe(addr_in_set(s, 1), static_cast<std::uint32_t>(s) + 1);
  }
  SetAffinityResult r = analyzer.finish();
  EXPECT_EQ(r.min_sa(), 2u);
  EXPECT_EQ(r.max_sa(), 9u);
  EXPECT_NEAR(r.quantile(0.5), 5.0, 1.01);
  EXPECT_FALSE(r.to_string().empty());
}

TEST(SetAffinityTest, AnalyzeTraceConvenience) {
  TraceBuffer t;
  t.emit(addr_in_set(0, 0), 0, AccessKind::kRead, 0);
  t.emit(addr_in_set(0, 1), 3, AccessKind::kRead, 0);
  const SetAffinityResult r = SetAffinityAnalyzer::analyze(t, tiny());
  EXPECT_EQ(r.per_set.at(0), 4u);
  EXPECT_EQ(r.accesses, 2u);
}

/// The analyzer as Figure 3 reads most literally: a hash set of distinct
/// blocks per touched set. The production analyzer keeps flat per-set rows
/// of `ways` slots and a touched-set list instead; the two must agree.
class ReferenceSetAffinity {
 public:
  ReferenceSetAffinity(const CacheGeometry& g, SetAffinityMode mode)
      : geometry_(g), mode_(mode) {}

  std::uint32_t observe(Addr addr, std::uint32_t outer_iter) {
    ++result_.accesses;
    result_.outer_iterations =
        std::max(result_.outer_iterations, outer_iter + 1);
    const LineAddr line = geometry_.line_of(addr);
    const std::uint64_t set = geometry_.set_of_line(line);
    State& state = sets_[set];
    if (state.saturated && mode_ == SetAffinityMode::kFirstSaturation) {
      return 0;
    }
    if (!state.blocks.insert(line).second) return 0;
    if (state.blocks.size() < geometry_.ways()) return 0;
    const std::uint32_t sa = outer_iter + 1 - state.window_start;
    result_.samples.push_back(sa);
    if (!state.saturated) {
      state.saturated = true;
      result_.per_set.emplace(set, sa);
    }
    if (mode_ == SetAffinityMode::kRecurrent) {
      state.blocks.clear();
      state.window_start = outer_iter + 1;
    }
    return sa;
  }

  SetAffinityResult finish() {
    result_.touched_sets = sets_.size();
    SetAffinityResult out = std::move(result_);
    result_ = SetAffinityResult{};
    sets_.clear();
    return out;
  }

 private:
  struct State {
    std::unordered_set<LineAddr> blocks;
    bool saturated = false;
    std::uint32_t window_start = 0;
  };
  CacheGeometry geometry_;
  SetAffinityMode mode_;
  std::unordered_map<std::uint64_t, State> sets_;
  SetAffinityResult result_;
};

class SetAffinityDifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, SetAffinityMode>> {
};

// Many short invocations through one reused analyzer: every finish() must
// leave it as fresh as a new one, so stale rows of sets touched by an earlier
// invocation can never leak blocks, counts or saturation into a later one.
TEST_P(SetAffinityDifferentialTest, ReusedAnalyzerMatchesHashSetReference) {
  const auto [ways, mode] = GetParam();
  const CacheGeometry g(std::uint64_t{64} * ways * 16, ways, 64);  // 16 sets
  SetAffinityAnalyzer analyzer(g, mode);
  ReferenceSetAffinity ref(g, mode);
  Xoshiro256 rng(ways * 7919 + static_cast<std::uint64_t>(mode));
  std::uint64_t samples = 0;
  for (int inv = 0; inv < 300; ++inv) {
    // Some invocations saturate many sets, some touch a handful of blocks.
    const std::uint64_t length = rng.below(4) == 0 ? rng.below(8)
                                                   : rng.below(40 * ways);
    const std::uint64_t universe =
        g.num_sets() * ways * (1 + rng.below(3));
    std::uint32_t iter = 0;
    for (std::uint64_t i = 0; i < length; ++i) {
      if (rng.below(4) == 0) iter += 1 + static_cast<std::uint32_t>(rng.below(3));
      const Addr addr = rng.below(universe) * g.line_bytes() + rng.below(64);
      ASSERT_EQ(analyzer.observe(addr, iter), ref.observe(addr, iter))
          << "invocation " << inv << " access " << i;
    }
    const SetAffinityResult got = analyzer.finish();
    const SetAffinityResult want = ref.finish();
    ASSERT_EQ(got.samples, want.samples) << "invocation " << inv;
    ASSERT_EQ(got.per_set, want.per_set) << "invocation " << inv;
    ASSERT_EQ(got.touched_sets, want.touched_sets) << "invocation " << inv;
    ASSERT_EQ(got.accesses, want.accesses) << "invocation " << inv;
    ASSERT_EQ(got.outer_iterations, want.outer_iterations)
        << "invocation " << inv;
    samples += got.samples.size();
  }
  EXPECT_GT(samples, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    WaysAndModes, SetAffinityDifferentialTest,
    ::testing::Combine(::testing::Values(1u, 2u, 16u, 64u),
                       ::testing::Values(SetAffinityMode::kFirstSaturation,
                                         SetAffinityMode::kRecurrent)),
    [](const auto& param_info) {
      return "ways" + std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) == SetAffinityMode::kRecurrent
                  ? "_recurrent"
                  : "_first");
    });

TEST(BurstSamplingTest, KeepsBurstsSkipsIntervals) {
  TraceBuffer t;
  for (std::uint32_t it = 0; it < 100; ++it) {
    t.emit(it * 64, it, AccessKind::kRead, 0);
  }
  BurstConfig cfg;
  cfg.burst_iters = 10;
  cfg.interval_iters = 40;  // period 50: bursts at [0,10) and [50,60)
  const auto bursts = burst_sample(t, cfg);
  ASSERT_EQ(bursts.size(), 2u);
  EXPECT_EQ(bursts[0].first_outer_iter, 0u);
  EXPECT_EQ(bursts[0].records.size(), 10u);
  EXPECT_EQ(bursts[1].first_outer_iter, 50u);
  EXPECT_EQ(bursts[1].records.size(), 10u);
  // Records are re-based within the burst.
  EXPECT_EQ(bursts[1].records[0].outer_iter, 0u);
  EXPECT_NEAR(sampled_fraction(t, bursts), 0.2, 1e-9);
}

TEST(BurstSamplingTest, EmptyTraceYieldsNoBursts) {
  EXPECT_TRUE(burst_sample(TraceBuffer{}, BurstConfig{}).empty());
}

TEST(BurstSamplingTest, WholeTraceWhenIntervalZero) {
  TraceBuffer t;
  for (std::uint32_t it = 0; it < 30; ++it) {
    t.emit(it * 64, it, AccessKind::kRead, 0);
  }
  BurstConfig cfg;
  cfg.burst_iters = 10;
  cfg.interval_iters = 0;
  const auto bursts = burst_sample(t, cfg);
  EXPECT_EQ(bursts.size(), 3u);
  EXPECT_NEAR(sampled_fraction(t, bursts), 1.0, 1e-9);
}

TEST(PhaseDetectionTest, UniformStreamIsOnePhase) {
  TraceBuffer t;
  Xoshiro256 rng(3);
  for (std::uint32_t i = 0; i < 40000; ++i) {
    t.emit(rng.below(1 << 16), i / 100, AccessKind::kRead, 0);
  }
  const PhaseReport report = detect_phases(t, tiny());
  EXPECT_TRUE(report.is_stable());
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].begin_record, 0u);
  EXPECT_EQ(report.phases[0].end_record, t.size());
}

TEST(PhaseDetectionTest, DisjointFootprintsSplitPhases) {
  TraceBuffer t;
  Xoshiro256 rng(4);
  // Phase A: low addresses; phase B: high addresses; back to A.
  auto emit_region = [&](Addr base, std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      t.emit(base + rng.below(1 << 14), 0, AccessKind::kRead, 0);
    }
  };
  emit_region(0, 20000);
  emit_region(1 << 24, 20000);
  emit_region(0, 20000);
  // Window length divides the region length so no window straddles a
  // boundary (a straddling window legitimately reads as a third, mixed
  // phase).
  PhaseConfig cfg;
  cfg.window_records = 10000;
  const PhaseReport report = detect_phases(t, tiny(), cfg);
  EXPECT_EQ(report.distinct_phases, 2u);
  ASSERT_EQ(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].phase_id, report.phases[2].phase_id);
  EXPECT_NE(report.phases[0].phase_id, report.phases[1].phase_id);
}

TEST(PhaseDetectionTest, EmptyTrace) {
  const PhaseReport report = detect_phases(TraceBuffer{}, tiny());
  EXPECT_TRUE(report.phases.empty());
  EXPECT_EQ(report.distinct_phases, 0u);
}

TEST(CalrTest, ComputeHeavyLoopHasHighCalr) {
  TraceBuffer t;
  // Every access hits the same line after the first -> cheap accesses, big
  // gaps.
  for (std::uint32_t i = 0; i < 1000; ++i) {
    t.emit(0, i, AccessKind::kRead, 0, 0, 500);
  }
  const CalrEstimate est = estimate_calr(t, CalrConfig{});
  EXPECT_GT(est.calr, 10.0);
  EXPECT_EQ(est.l1_hits, 999u);
}

TEST(CalrTest, PointerChaseHasLowCalr) {
  TraceBuffer t;
  Xoshiro256 rng(5);
  for (std::uint32_t i = 0; i < 20000; ++i) {
    // 64 MB footprint: misses dominate.
    t.emit(rng.below(1 << 26), i, AccessKind::kRead, 0, 0, 1);
  }
  const CalrEstimate est = estimate_calr(t, CalrConfig{});
  EXPECT_LT(est.calr, 0.1);
  EXPECT_GT(est.l2_misses, 10000u);
  EXPECT_FALSE(est.to_string().empty());
}

TEST(CalrTest, PrefetchRecordsExcludedFromAccessCost) {
  TraceBuffer demand;
  TraceBuffer with_pf;
  for (std::uint32_t i = 0; i < 100; ++i) {
    demand.emit(i * 4096, i, AccessKind::kRead, 0, 0, 10);
    with_pf.emit(i * 4096, i, AccessKind::kRead, 0, 0, 10);
    with_pf.emit((i + 1000) * 4096, i, AccessKind::kPrefetch, 0);
  }
  const CalrEstimate a = estimate_calr(demand, CalrConfig{});
  const CalrEstimate b = estimate_calr(with_pf, CalrConfig{});
  EXPECT_EQ(a.access_cycles, b.access_cycles);
}

TEST(InvocationsTest, PerInvocationRebasing) {
  // Two invocations of 10 iterations each; in each, set 0 saturates at local
  // iteration 5 — cumulative analysis would report 5 then nothing.
  TraceBuffer t;
  for (std::uint32_t inv = 0; inv < 2; ++inv) {
    const std::uint32_t base = inv * 10;
    t.emit(addr_in_set(0, 2 * inv), base + 0, AccessKind::kRead, 0);
    t.emit(addr_in_set(0, 2 * inv + 1), base + 4, AccessKind::kRead, 0);
  }
  const WorkloadSaResult r = analyze_workload_sa(t, {0, 10}, tiny());
  EXPECT_FALSE(r.cumulative_fallback);
  EXPECT_EQ(r.invocations_analyzed, 2u);
  ASSERT_EQ(r.merged.samples.size(), 2u);
  EXPECT_EQ(r.merged.samples[0], 5u);
  EXPECT_EQ(r.merged.samples[1], 5u);  // re-based, not 15
}

TEST(InvocationsTest, CumulativeFallbackWhenCallsTooShort) {
  // Each invocation touches one distinct block per set: never saturates
  // within a call, but does across calls.
  TraceBuffer t;
  for (std::uint32_t inv = 0; inv < 4; ++inv) {
    t.emit(addr_in_set(0, inv), inv, AccessKind::kRead, 0);
  }
  const WorkloadSaResult r = analyze_workload_sa(t, {0, 1, 2, 3}, tiny());
  EXPECT_TRUE(r.cumulative_fallback);
  EXPECT_TRUE(r.merged.any_saturated());
  EXPECT_EQ(r.merged.min_sa(), 2u);
}

TEST(InvocationsDeathTest, StartsMustBeginAtZero) {
  TraceBuffer t;
  t.emit(0, 0, AccessKind::kRead, 0);
  EXPECT_DEATH((void)analyze_workload_sa(t, {5}, tiny()), "iteration 0");
}

}  // namespace
}  // namespace spf
