// Cross-module property tests: invariants that must hold for any input,
// exercised over randomized traces and parameter grids (TEST_P sweeps).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "spf/common/rng.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/sim/pollution.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/trace/trace_cursor.hpp"
#include "spf/workloads/synthetic.hpp"

namespace spf {
namespace {

TraceBuffer random_trace(std::uint64_t seed, std::uint32_t iters,
                         std::uint32_t per_iter, std::uint64_t footprint_lines) {
  TraceBuffer t;
  Xoshiro256 rng(seed);
  for (std::uint32_t i = 0; i < iters; ++i) {
    t.emit(static_cast<Addr>(i) * 64, i, AccessKind::kRead, 0, kFlagSpine, 1);
    for (std::uint32_t j = 0; j + 1 < per_iter; ++j) {
      const bool write = rng.below(10) == 0;
      t.emit(rng.below(footprint_lines) * 64, i,
             write ? AccessKind::kWrite : AccessKind::kRead,
             static_cast<std::uint8_t>(1 + rng.below(4)),
             write ? TraceFlags{0} : kFlagDelinquent, 1);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Simulator invariants over a parameter grid.

struct SimGrid {
  std::uint32_t mshrs;
  bool hw_prefetch;
  ReplacementKind policy;
};

class SimInvariantTest : public ::testing::TestWithParam<SimGrid> {};

TEST_P(SimInvariantTest, ConservationAndBoundsHold) {
  const SimGrid grid = GetParam();
  SimConfig cfg;
  cfg.l1 = CacheGeometry(2048, 4, 64);
  cfg.l2 = CacheGeometry(64 * 1024, 8, 64);
  cfg.l2_mshrs = grid.mshrs;
  cfg.hw_prefetch = grid.hw_prefetch;
  cfg.replacement = grid.policy;

  const TraceBuffer main_t = random_trace(1, 800, 8, 4096);
  const TraceBuffer helper_t =
      make_helper_trace(main_t, SpParams{.a_ski = 4, .a_pre = 4});

  CmpSimulator sim(cfg);
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t,
                 .origin = FillOrigin::kHelper,
                 .sync = RoundSync{.leader = 0, .round_iters = 8}},
  });

  for (const ThreadMetrics& m : r.per_core) {
    // Classification partitions demand L2 lookups.
    EXPECT_EQ(m.totally_hits + m.partially_hits + m.totally_misses,
              m.l2_lookups);
    // Every demand access either hit L1 or went to L2.
    EXPECT_EQ(m.l1_hits + m.l2_lookups, m.demand_accesses);
    // The core finishes no earlier than its stall budget implies.
    EXPECT_LE(m.finish_time, r.makespan);
  }
  // Every memory request was a demand miss, a software prefetch, or a
  // hardware prefetch.
  EXPECT_EQ(r.memory.requests,
            r.per_core[0].totally_misses + r.per_core[1].totally_misses +
                r.per_core[0].prefetches_issued +
                r.per_core[1].prefetches_issued + r.hw_prefetches_issued);
  // Pollution can never exceed prefetch-caused evictions by construction
  // (cases 2/3 are prefetch-caused; case 1 re-misses are bounded by the
  // shadow, which only prefetch-caused evictions feed).
  EXPECT_LE(r.pollution.case2_helper_displaced +
                r.pollution.case3_hw_displaced,
            r.pollution.prefetch_caused_evictions);
  EXPECT_LE(r.pollution.prefetch_caused_evictions,
            r.pollution.total_evictions);
  // MSHR occupancy never exceeded capacity.
  EXPECT_LE(r.mshr.peak_occupancy, grid.mshrs);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimInvariantTest,
    ::testing::Values(SimGrid{1, false, ReplacementKind::kLru},
                      SimGrid{2, true, ReplacementKind::kLru},
                      SimGrid{8, true, ReplacementKind::kTreePlru},
                      SimGrid{16, true, ReplacementKind::kSrrip},
                      SimGrid{16, false, ReplacementKind::kFifo},
                      SimGrid{32, true, ReplacementKind::kRandom}),
    [](const auto& param_info) {
      return std::string("mshr") + std::to_string(param_info.param.mshrs) +
             (param_info.param.hw_prefetch ? "_hw" : "_nohw") + "_" +
             to_string(param_info.param.policy);
    });

// ---------------------------------------------------------------------------
// Helper-generation properties.

class HelperGenPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(HelperGenPropertyTest, HelperIsAReadOnlySubsetWithRoundStructure) {
  const auto [a_ski, a_pre] = GetParam();
  const SpParams params{.a_ski = a_ski, .a_pre = a_pre};
  const TraceBuffer main_t = random_trace(a_ski * 7 + a_pre, 300, 6, 2048);
  const TraceBuffer helper = make_helper_trace(main_t, params);

  // Subset property: every helper record's (addr, iter) pair exists in the
  // main trace.
  std::set<std::pair<Addr, std::uint32_t>> main_pairs;
  for (const TraceRecord& r : main_t) main_pairs.insert({r.addr, r.outer_iter});
  for (const TraceRecord& r : helper) {
    EXPECT_NE(r.kind(), AccessKind::kWrite);
    EXPECT_TRUE(main_pairs.count({r.addr, r.outer_iter}))
        << "helper invented an access";
    const std::uint32_t pos = r.outer_iter % params.round();
    if (pos < params.a_ski) {
      EXPECT_TRUE(r.is_spine());
    }
  }

  // Completeness property: every delinquent read in a pre-execute iteration
  // appears in the helper stream.
  std::uint64_t expected = 0;
  std::uint64_t got = 0;
  for (const TraceRecord& r : main_t) {
    if (r.kind() == AccessKind::kWrite) continue;
    if (r.outer_iter % params.round() >= params.a_ski && r.is_delinquent()) {
      ++expected;
    }
  }
  for (const TraceRecord& r : helper) {
    if (r.is_delinquent()) ++got;
  }
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Rounds, HelperGenPropertyTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(4u, 4u),
                      std::make_tuple(16u, 4u), std::make_tuple(0u, 8u),
                      std::make_tuple(3u, 9u)),
    [](const auto& param_info) {
      return "ski" + std::to_string(std::get<0>(param_info.param)) + "_pre" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---------------------------------------------------------------------------
// Set Affinity monotonicity properties.

TEST(SaPropertyTest, MoreWaysNeverDecreaseSa) {
  const TraceBuffer t = random_trace(9, 2000, 10, 1 << 14);
  const SetAffinityResult sa4 =
      SetAffinityAnalyzer::analyze(t, CacheGeometry(16 * 1024, 4, 64));
  const SetAffinityResult sa8 =
      SetAffinityAnalyzer::analyze(t, CacheGeometry(32 * 1024, 8, 64));
  // Same set count (64), doubled ways: each set needs more distinct blocks
  // to saturate, so per-set SA can only grow (or the set stops saturating).
  ASSERT_TRUE(sa4.any_saturated());
  for (const auto& [set, sa] : sa8.per_set) {
    auto it = sa4.per_set.find(set);
    if (it != sa4.per_set.end()) {
      EXPECT_GE(sa, it->second) << "set " << set;
    }
  }
}

TEST(SaPropertyTest, SupersetStreamNeverIncreasesSa) {
  // Adding a helper's accesses to the stream can only move each set's
  // saturation earlier — the monotonicity behind Definition 3 and the *2
  // inequality.
  const TraceBuffer main_t = random_trace(10, 1500, 8, 1 << 13);
  const TraceBuffer helper =
      make_helper_trace(main_t, SpParams{.a_ski = 8, .a_pre = 8});
  const TraceBuffer combined = materialize(
      MergeByIterCursor(TraceViewCursor(main_t), TraceViewCursor(helper)));
  const CacheGeometry g(32 * 1024, 8, 64);
  const SetAffinityResult solo = SetAffinityAnalyzer::analyze(main_t, g);
  const SetAffinityResult both = SetAffinityAnalyzer::analyze(combined, g);
  for (const auto& [set, sa] : solo.per_set) {
    auto it = both.per_set.find(set);
    ASSERT_NE(it, both.per_set.end()) << "saturated set vanished";
    EXPECT_LE(it->second, sa) << "set " << set;
  }
}

// ---------------------------------------------------------------------------
// The pollution shadow's open-addressing table against a hash map. Small
// capacities keep probe chains long and wrapping, so duplicate inserts and
// backward-shift deletions run through crowded chains; line 0 is in the
// universe, since only the all-ones line marks an empty slot. Each entry's
// aux payload must move with it and come back on erase.

TEST(ShadowTablePropertyTest, MatchesHashMapUnderChurn) {
  for (const std::uint32_t capacity : {1u, 8u, 64u}) {
    SCOPED_TRACE(capacity);
    ShadowTable table(capacity);
    table.enable_aux();
    std::unordered_map<LineAddr, std::uint32_t> ref;
    Xoshiro256 rng(capacity);
    const std::uint64_t universe = 4 * std::uint64_t{capacity} + 4;
    for (std::uint32_t op = 0; op < 50000; ++op) {
      const LineAddr line = rng.below(universe);
      if (rng.below(2) == 0 && ref.size() < capacity) {
        const ShadowAux aux{.evict_lookup = op};
        table.insert_or_assign(line, &aux);
        ref[line] = op;
      } else {
        ShadowAux got;
        const auto it = ref.find(line);
        ASSERT_EQ(table.erase(line, &got), it != ref.end()) << "op " << op;
        if (it != ref.end()) {
          EXPECT_EQ(got.evict_lookup, it->second) << "op " << op;
          ref.erase(it);
        }
      }
      ASSERT_EQ(table.size(), ref.size()) << "op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism across the entire pipeline.

TEST(DeterminismPropertyTest, FullPipelineIsBitStable) {
  SyntheticConfig wcfg;
  wcfg.iterations = 5000;
  auto run_pipeline = [&] {
    const SyntheticWorkload w(wcfg);
    const TraceBuffer trace = w.emit_trace();
    const DistanceBound bound =
        estimate_distance_bound(trace, w.invocation_starts(),
                                CacheGeometry(128 * 1024, 16, 64));
    SpExperimentConfig cfg;
    cfg.sim.l2 = CacheGeometry(128 * 1024, 16, 64);
    cfg.params = SpParams::from_distance_rp(bound.upper_limit / 2, 0.5);
    const SpComparison cmp = run_sp_experiment(trace, cfg);
    return std::make_tuple(bound.upper_limit, cmp.sp.runtime,
                           cmp.sp.totally_hits, cmp.sp.partially_hits,
                           cmp.sp.pollution.total_pollution());
  };
  EXPECT_EQ(run_pipeline(), run_pipeline());
}

}  // namespace
}  // namespace spf
