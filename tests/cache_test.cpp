// Unit tests for spf_cache: lookup/fill/evict semantics, per-line provenance
// metadata, and every replacement policy.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/common/rng.hpp"

namespace spf {
namespace {

// Tiny geometry: 4 sets x 2 ways of 64B lines.
CacheGeometry tiny() { return CacheGeometry(512, 2, 64); }

// Line address mapping to set `s` with tag index `t` under tiny().
LineAddr line_in_set(std::uint64_t s, std::uint64_t t) { return s + 4 * t; }

TEST(CacheTest, MissThenFillThenHit) {
  Cache c(tiny(), ReplacementKind::kLru);
  const LineAddr line = line_in_set(1, 0);
  EXPECT_FALSE(c.access(line, AccessKind::kRead, 0));
  EXPECT_FALSE(c.fill(line, FillOrigin::kDemand, 0, 1).has_value());
  EXPECT_TRUE(c.access(line, AccessKind::kRead, 2));
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(CacheTest, ProbeHasNoSideEffects) {
  Cache c(tiny(), ReplacementKind::kLru);
  EXPECT_FALSE(c.probe(5).has_value());
  EXPECT_FALSE(c.contains(5));
  c.fill(5, FillOrigin::kHelper, 1, 0);
  const std::optional<CacheLine> line = c.probe(5);
  ASSERT_TRUE(line.has_value());
  EXPECT_TRUE(c.contains(5));
  EXPECT_EQ(line->line, 5u);
  EXPECT_EQ(line->origin, FillOrigin::kHelper);
  EXPECT_FALSE(line->used_since_fill);
  EXPECT_EQ(c.stats().lookups, 0u);  // probes are not counted
}

TEST(CacheTest, EvictionReturnsVictimWithMetadata) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(line_in_set(2, 0), FillOrigin::kHelper, 1, 10);
  c.fill(line_in_set(2, 1), FillOrigin::kDemand, 0, 11);
  // Set 2 is full (2 ways); third fill evicts LRU = the helper line.
  auto ev = c.fill(line_in_set(2, 2), FillOrigin::kHardware, 0, 12);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->victim.line, line_in_set(2, 0));
  EXPECT_EQ(ev->victim.origin, FillOrigin::kHelper);
  EXPECT_FALSE(ev->victim.used_since_fill);
  EXPECT_EQ(ev->replaced_by, line_in_set(2, 2));
  EXPECT_EQ(ev->replaced_by_origin, FillOrigin::kHardware);
  EXPECT_EQ(ev->when, 12u);
  EXPECT_EQ(c.stats().evicted_unused_helper, 1u);
}

TEST(CacheTest, DemandTouchMarksUsed) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(7, FillOrigin::kHelper, 1, 0);
  EXPECT_FALSE(c.probe(7)->used_since_fill);
  c.access(7, AccessKind::kRead, 1);
  EXPECT_TRUE(c.probe(7)->used_since_fill);
}

TEST(CacheTest, PrefetchTouchDoesNotMarkUsed) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(7, FillOrigin::kHardware, 0, 0);
  c.access(7, AccessKind::kPrefetch, 1);
  EXPECT_FALSE(c.probe(7)->used_since_fill);
}

TEST(CacheTest, WriteSetsDirty) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(3, FillOrigin::kDemand, 0, 0);
  EXPECT_FALSE(c.probe(3)->dirty);
  c.access(3, AccessKind::kWrite, 1);
  EXPECT_TRUE(c.probe(3)->dirty);
}

TEST(CacheTest, RefillOfPresentLineDoesNotEvict) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(9, FillOrigin::kHelper, 1, 0);
  const auto ev = c.fill(9, FillOrigin::kHardware, 0, 1);
  EXPECT_FALSE(ev.has_value());
  // Origin is preserved; a racing prefetch completion must not retag.
  EXPECT_EQ(c.probe(9)->origin, FillOrigin::kHelper);
  EXPECT_EQ(c.stats().fills, 1u);
}

TEST(CacheTest, DemandRefillUpgradesUsedBit) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(9, FillOrigin::kHelper, 1, 0);
  c.fill(9, FillOrigin::kDemand, 0, 1);
  EXPECT_TRUE(c.probe(9)->used_since_fill);
}

TEST(CacheTest, MarkDirtyWithoutTouchingRecency) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kLru);  // 1 set
  std::uint32_t slot0 = Cache::kNoSlot;
  c.fill(0, FillOrigin::kDemand, 0, 0, &slot0);
  for (LineAddr l = 1; l < 4; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  c.mark_dirty_slot(slot0);
  EXPECT_TRUE(c.probe(0)->dirty);
  EXPECT_FALSE(c.probe(1)->dirty);
  // Line 0 is still the LRU victim: mark_dirty_slot must not promote it.
  const auto ev = c.fill(50, FillOrigin::kDemand, 0, 10);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->victim.line, 0u);
  EXPECT_TRUE(ev->victim.dirty);
}

TEST(CacheTest, InvalidateRemovesLine) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(4, FillOrigin::kDemand, 0, 0);
  EXPECT_TRUE(c.invalidate(4));
  EXPECT_FALSE(c.probe(4).has_value());
  EXPECT_FALSE(c.invalidate(4));
}

TEST(CacheTest, SetOccupancyCounts) {
  Cache c(tiny(), ReplacementKind::kLru);
  EXPECT_EQ(c.set_occupancy(0), 0u);
  c.fill(line_in_set(0, 0), FillOrigin::kDemand, 0, 0);
  c.fill(line_in_set(0, 1), FillOrigin::kDemand, 0, 1);
  c.fill(line_in_set(1, 0), FillOrigin::kDemand, 0, 2);
  EXPECT_EQ(c.set_occupancy(0), 2u);
  EXPECT_EQ(c.set_occupancy(1), 1u);
}

TEST(CacheTest, ForEachLineVisitsAllValid) {
  Cache c(tiny(), ReplacementKind::kLru);
  c.fill(1, FillOrigin::kDemand, 0, 0);
  c.fill(2, FillOrigin::kDemand, 0, 0);
  std::set<LineAddr> seen;
  c.for_each_line([&](const CacheLine& l) { seen.insert(l.line); });
  EXPECT_EQ(seen, (std::set<LineAddr>{1, 2}));
}

// Moves transfer the whole state machine: the destination continues exactly
// where the source left off, and the moved-from cache can be reassigned a
// fresh Cache and reused (the only supported reuse pattern).
TEST(CacheTest, MoveTransfersStateAndMovedFromIsReassignable) {
  Cache src(tiny(), ReplacementKind::kLru);
  const LineAddr a = line_in_set(0, 0);
  const LineAddr b = line_in_set(0, 1);
  EXPECT_FALSE(src.access(a, AccessKind::kRead, 0));
  src.fill(a, FillOrigin::kHelper, 3, 1);
  src.fill(b, FillOrigin::kDemand, 0, 2);

  Cache dst = std::move(src);
  // Contents, metadata, stats, and replacement state all came across.
  ASSERT_TRUE(dst.probe(a).has_value());
  EXPECT_EQ(dst.probe(a)->origin, FillOrigin::kHelper);
  EXPECT_FALSE(dst.probe(a)->used_since_fill);
  ASSERT_TRUE(dst.probe(b).has_value());
  EXPECT_EQ(dst.stats().fills, 2u);
  EXPECT_EQ(dst.stats().misses, 1u);
  EXPECT_EQ(dst.set_occupancy(0), 2u);
  // LRU continuity: `a` is older than `b`, so the next fill into the full
  // set evicts `a` — same as it would have in the source.
  const auto evicted = dst.fill(line_in_set(0, 2), FillOrigin::kDemand, 0, 3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->victim.line, a);

  // Reassigning the moved-from shell yields a fully functional cache.
  src = Cache(tiny(), ReplacementKind::kFifo);
  EXPECT_EQ(src.policy(), ReplacementKind::kFifo);
  EXPECT_EQ(src.stats().lookups, 0u);
  EXPECT_FALSE(src.access(a, AccessKind::kRead, 0));
  src.fill(a, FillOrigin::kDemand, 0, 1);
  EXPECT_TRUE(src.access(a, AccessKind::kRead, 2));
  EXPECT_EQ(src.set_occupancy(0), 1u);
}

TEST(LruPolicyTest, EvictsLeastRecentlyTouched) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kLru);  // 1 set, 4 ways
  for (LineAddr l = 0; l < 4; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  c.access(0, AccessKind::kRead, 10);  // refresh line 0
  const auto ev = c.fill(99, FillOrigin::kDemand, 0, 11);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->victim.line, 1u);  // oldest untouched
}

TEST(FifoPolicyTest, HitsDoNotRefresh) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kFifo);
  for (LineAddr l = 0; l < 4; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  c.access(0, AccessKind::kRead, 10);  // FIFO ignores this
  const auto ev = c.fill(99, FillOrigin::kDemand, 0, 11);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->victim.line, 0u);  // oldest fill despite the hit
}

TEST(TreePlruPolicyTest, VictimIsNeverMostRecentlyUsed) {
  Cache c(CacheGeometry(512, 8, 64), ReplacementKind::kTreePlru);  // 1 set
  for (LineAddr l = 0; l < 8; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  for (int round = 0; round < 20; ++round) {
    const LineAddr touched = round % 8;
    c.access(touched, AccessKind::kRead, 100 + round);
    // Fill a fresh line; PLRU must not evict the line touched immediately
    // before.
    const auto ev = c.fill(1000 + round, FillOrigin::kDemand, 0, 200 + round);
    ASSERT_TRUE(ev.has_value());
    EXPECT_NE(ev->victim.line, touched);
    // Restore the evicted line so the set keeps its working set shape.
    c.invalidate(1000 + round);
    c.fill(ev->victim.line, FillOrigin::kDemand, 0, 300 + round);
  }
}

TEST(RandomPolicyTest, EventuallyEvictsEveryWay) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kRandom, 1234);
  for (LineAddr l = 0; l < 4; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  std::set<LineAddr> victims;
  LineAddr next = 100;
  for (int i = 0; i < 200 && victims.size() < 4; ++i) {
    const auto ev = c.fill(next, FillOrigin::kDemand, 0, 10 + i);
    ASSERT_TRUE(ev.has_value());
    victims.insert(ev->victim.line % 4 == ev->victim.line ? ev->victim.line
                                                          : ev->victim.line);
    ++next;
  }
  // With 200 random evictions the original 4 lines are long gone; just check
  // multiple distinct ways were victimized early on.
  EXPECT_GE(victims.size(), 3u);
}

TEST(SrripPolicyTest, HitPromotionProtectsReusedLines) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kSrrip);
  for (LineAddr l = 0; l < 4; ++l) c.fill(l, FillOrigin::kDemand, 0, l);
  // Promote lines 0 and 1 to RRPV 0; lines 2,3 stay at insertion RRPV.
  c.access(0, AccessKind::kRead, 5);
  c.access(1, AccessKind::kRead, 6);
  const auto ev = c.fill(50, FillOrigin::kDemand, 0, 7);
  ASSERT_TRUE(ev.has_value());
  EXPECT_TRUE(ev->victim.line == 2 || ev->victim.line == 3);
}

TEST(ReplacementFactoryTest, RoundTripsNames) {
  for (ReplacementKind k :
       {ReplacementKind::kLru, ReplacementKind::kTreePlru, ReplacementKind::kFifo,
        ReplacementKind::kRandom, ReplacementKind::kSrrip}) {
    EXPECT_EQ(replacement_from_string(to_string(k)), k);
  }
  EXPECT_THROW((void)replacement_from_string("bogus"), std::invalid_argument);
}

// Property: with LRU and a cyclic footprint of ways+1 lines in one set, every
// access misses (classic LRU pathological case) — validates strict LRU order.
TEST(LruPropertyTest, CyclicOverCapacityAlwaysMisses) {
  Cache c(CacheGeometry(256, 4, 64), ReplacementKind::kLru);
  for (int round = 0; round < 10; ++round) {
    for (LineAddr l = 0; l < 5; ++l) {
      EXPECT_FALSE(c.access(l, AccessKind::kRead, 0)) << "round " << round;
      c.fill(l, FillOrigin::kDemand, 0, 0);
    }
  }
  EXPECT_EQ(c.stats().hits, 0u);
}

// Property: any policy keeps at most `ways` valid lines per set and never
// loses the just-filled line.
class PolicyPropertyTest : public ::testing::TestWithParam<ReplacementKind> {};

TEST_P(PolicyPropertyTest, OccupancyBoundedAndFillVisible) {
  const CacheGeometry g(1024, 4, 64);  // 4 sets x 4 ways
  Cache c(g, GetParam(), 42);
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const LineAddr line = rng.below(64);
    if (!c.access(line, AccessKind::kRead, i)) {
      c.fill(line, FillOrigin::kDemand, 0, i);
      ASSERT_TRUE(c.contains(line)) << "fill not visible";
    }
    for (std::uint64_t s = 0; s < g.num_sets(); ++s) {
      ASSERT_LE(c.set_occupancy(s), g.ways());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyPropertyTest,
                         ::testing::Values(ReplacementKind::kLru,
                                           ReplacementKind::kTreePlru,
                                           ReplacementKind::kFifo,
                                           ReplacementKind::kRandom,
                                           ReplacementKind::kSrrip),
                         [](const auto& param_info) {
                           return std::string(to_string(param_info.param));
                         });

}  // namespace
}  // namespace spf
