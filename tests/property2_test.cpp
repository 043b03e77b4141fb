// Second property suite: sampling, trace merging, and analyzer
// idempotence properties over randomized inputs.
#include <gtest/gtest.h>

#include "spf/common/rng.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/profile/sampling.hpp"
#include "spf/profile/set_affinity.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {
namespace {

TraceBuffer random_trace(std::uint64_t seed, std::uint32_t iters,
                         std::uint32_t per_iter) {
  TraceBuffer t;
  Xoshiro256 rng(seed);
  for (std::uint32_t i = 0; i < iters; ++i) {
    for (std::uint32_t j = 0; j < per_iter; ++j) {
      t.emit(rng.below(1u << 22), i, AccessKind::kRead,
             static_cast<std::uint8_t>(rng.below(6)),
             j == 0 ? kFlagSpine : kFlagDelinquent, 1);
    }
  }
  return t;
}

TraceBuffer merge(const TraceBuffer& a, const TraceBuffer& b) {
  return materialize(MergeByIterCursor(TraceViewCursor(a), TraceViewCursor(b)));
}

// ---------------------------------------------------------------------------
// Burst sampling: the retained fraction approximates burst/(burst+interval)
// and every burst contains only its own iterations, re-based.

class BurstPropertyTest
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(BurstPropertyTest, FractionAndRebasingHold) {
  const auto [burst, interval] = GetParam();
  const TraceBuffer t = random_trace(burst * 131 + interval, 5000, 4);
  BurstConfig cfg;
  cfg.burst_iters = burst;
  cfg.interval_iters = interval;
  const auto bursts = burst_sample(t, cfg);
  ASSERT_FALSE(bursts.empty());

  const double expected =
      static_cast<double>(burst) / static_cast<double>(burst + interval);
  EXPECT_NEAR(sampled_fraction(t, bursts), expected, 0.05);

  for (const Burst& b : bursts) {
    EXPECT_EQ(b.first_outer_iter % (burst + interval), 0u);
    for (const TraceRecord& r : b.records) {
      EXPECT_LT(r.outer_iter, burst);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BurstPropertyTest,
    ::testing::Values(std::make_pair(64u, 448u), std::make_pair(128u, 896u),
                      std::make_pair(256u, 256u), std::make_pair(500u, 1500u)),
    [](const auto& param_info) {
      return "b" + std::to_string(param_info.param.first) + "_i" +
             std::to_string(param_info.param.second);
    });

// ---------------------------------------------------------------------------
// Trace merging.

TEST(TraceOpsPropertyTest, MergeIsOrderedAndSizePreserving) {
  const TraceBuffer a = random_trace(8, 600, 2);
  const TraceBuffer b = random_trace(9, 300, 4);
  const TraceBuffer merged = merge(a, b);
  EXPECT_EQ(merged.size(), a.size() + b.size());
  std::uint32_t prev = 0;
  for (const TraceRecord& r : merged) {
    EXPECT_GE(r.outer_iter, prev);
    prev = r.outer_iter;
  }
}

// ---------------------------------------------------------------------------
// Analyzer idempotence / reuse.

TEST(SaIdempotenceTest, AnalyzerReusableAfterFinish) {
  const CacheGeometry g(16 * 1024, 4, 64);
  const TraceBuffer t = random_trace(10, 2000, 6);
  SetAffinityAnalyzer analyzer(g);
  for (const TraceRecord& r : t) analyzer.observe(r.addr, r.outer_iter);
  const SetAffinityResult first = analyzer.finish();
  // Reuse the same analyzer object: must match a fresh analysis exactly.
  for (const TraceRecord& r : t) analyzer.observe(r.addr, r.outer_iter);
  const SetAffinityResult second = analyzer.finish();
  EXPECT_EQ(first.samples, second.samples);
  EXPECT_EQ(first.per_set, second.per_set);
  EXPECT_EQ(first.touched_sets, second.touched_sets);
}

TEST(BoundMonotonicityTest, BiggerCachesAllowLongerDistances) {
  const TraceBuffer t = random_trace(11, 4000, 8);
  std::uint32_t prev_bound = 0;
  for (std::uint64_t size : {32u << 10, 64u << 10, 128u << 10}) {
    const DistanceBound bound =
        estimate_distance_bound(t, {0}, CacheGeometry(size, 8, 64));
    EXPECT_GE(bound.upper_limit, prev_bound)
        << "bound shrank when the cache grew (size " << size << ")";
    prev_bound = bound.upper_limit;
  }
}

}  // namespace
}  // namespace spf
