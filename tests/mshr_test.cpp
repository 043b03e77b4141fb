// Unit tests for the MSHR file: allocation, merging (partial-hit substrate),
// capacity behaviour, and completion draining.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "spf/mshr/mshr.hpp"

namespace spf {
namespace {

TEST(MshrTest, AllocateAndFind) {
  MshrFile mshr(4);
  EXPECT_EQ(mshr.find(10), nullptr);
  const MshrEntry* e = mshr.allocate(10, 100, 400, FillOrigin::kDemand, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->line, 10u);
  EXPECT_EQ(e->issue_time, 100u);
  EXPECT_EQ(e->fill_time, 400u);
  EXPECT_EQ(mshr.find(10), e);
  EXPECT_EQ(mshr.size(), 1u);
}

TEST(MshrTest, FullRejectsAndCounts) {
  MshrFile mshr(2);
  EXPECT_NE(mshr.allocate(1, 0, 10, FillOrigin::kDemand, 0), nullptr);
  EXPECT_NE(mshr.allocate(2, 0, 10, FillOrigin::kDemand, 0), nullptr);
  EXPECT_TRUE(mshr.full());
  EXPECT_EQ(mshr.allocate(3, 0, 10, FillOrigin::kDemand, 0), nullptr);
  EXPECT_EQ(mshr.stats().full_rejections, 1u);
  EXPECT_EQ(mshr.stats().allocations, 2u);
}

TEST(MshrTest, MergeCountsSecondaryRequests) {
  MshrFile mshr(4);
  mshr.allocate(5, 0, 100, FillOrigin::kHardware, 1);
  const MshrEntry& e = mshr.merge(5, /*demand_requester=*/false);
  EXPECT_EQ(e.merged, 1u);
  EXPECT_FALSE(e.demand_merged);
  EXPECT_EQ(mshr.stats().merges, 1u);
}

TEST(MshrTest, DemandMergeUpgradesPrefetchEntry) {
  MshrFile mshr(4);
  mshr.allocate(5, 0, 100, FillOrigin::kHelper, 1);
  const MshrEntry& e = mshr.merge(5, /*demand_requester=*/true);
  EXPECT_TRUE(e.demand_merged);
  EXPECT_EQ(mshr.stats().demand_merges_into_prefetch, 1u);
  // Origin itself is preserved (provenance of the original requester).
  EXPECT_EQ(e.origin, FillOrigin::kHelper);
}

TEST(MshrTest, DemandMergeIntoDemandEntryIsNotAnUpgrade) {
  MshrFile mshr(4);
  mshr.allocate(5, 0, 100, FillOrigin::kDemand, 0);
  mshr.merge(5, true);
  EXPECT_EQ(mshr.stats().demand_merges_into_prefetch, 0u);
}

TEST(MshrTest, HelperMergeNeverUpgrades) {
  MshrFile mshr(4);
  mshr.allocate(5, 0, 100, FillOrigin::kHardware, 1);
  mshr.merge(5, /*demand_requester=*/false);  // helper's own blocking load
  EXPECT_FALSE(mshr.find(5)->demand_merged);
}

TEST(MshrTest, MarkWriteTracksStores) {
  MshrFile mshr(4);
  mshr.allocate(5, 0, 100, FillOrigin::kDemand, 0);
  EXPECT_FALSE(mshr.find(5)->write);
  mshr.mark_write(5);
  EXPECT_TRUE(mshr.find(5)->write);
  mshr.mark_write(99);  // absent line: harmless no-op
}

TEST(MshrTest, NextCompletionIsEarliestFill) {
  MshrFile mshr(4);
  EXPECT_EQ(mshr.next_completion(), std::numeric_limits<Cycle>::max());
  mshr.allocate(1, 0, 300, FillOrigin::kDemand, 0);
  mshr.allocate(2, 0, 150, FillOrigin::kDemand, 0);
  mshr.allocate(3, 0, 220, FillOrigin::kDemand, 0);
  EXPECT_EQ(mshr.next_completion(), 150u);
}

TEST(MshrTest, DrainCompletedReturnsInFillOrder) {
  MshrFile mshr(8);
  mshr.allocate(1, 0, 300, FillOrigin::kDemand, 0);
  mshr.allocate(2, 0, 150, FillOrigin::kDemand, 0);
  mshr.allocate(3, 0, 500, FillOrigin::kDemand, 0);
  const auto done = mshr.drain_completed(320);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].line, 2u);
  EXPECT_EQ(done[1].line, 1u);
  EXPECT_EQ(mshr.size(), 1u);
  EXPECT_EQ(mshr.find(3)->line, 3u);
}

// Entries allocated out of fill order (including ties) drain sorted by fill
// time, ties in allocation order, and merges/marks still find every line
// wherever its entry sits.
TEST(MshrTest, OutOfOrderAllocationsDrainByFillTimeThenAllocation) {
  MshrFile mshr(8);
  const Cycle fills[] = {50, 30, 50, 10, 30, 40, 10};
  for (LineAddr line = 0; line < 7; ++line) {
    ASSERT_NE(mshr.allocate(line, 0, fills[line], FillOrigin::kDemand, 0),
              nullptr);
  }
  EXPECT_EQ(mshr.next_completion(), 10u);
  for (LineAddr line = 0; line < 7; ++line) {
    ASSERT_NE(mshr.find(line), nullptr) << "line " << line;
    EXPECT_EQ(mshr.find(line)->fill_time, fills[line]);
  }
  mshr.mark_write(4);
  EXPECT_EQ(mshr.merge(2, /*demand_requester=*/true).merged, 1u);

  const auto first = mshr.drain_completed(30);
  const std::vector<LineAddr> first_order = {3, 6, 1, 4};
  ASSERT_EQ(first.size(), first_order.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].line, first_order[i]) << "position " << i;
  }
  EXPECT_TRUE(first[3].write);
  EXPECT_EQ(mshr.next_completion(), 40u);

  // A late allocation that completes before the survivors goes first.
  ASSERT_NE(mshr.allocate(9, 31, 35, FillOrigin::kHardware, 1), nullptr);
  EXPECT_EQ(mshr.next_completion(), 35u);
  const auto rest = mshr.drain_completed(std::numeric_limits<Cycle>::max());
  const std::vector<LineAddr> rest_order = {9, 5, 0, 2};
  ASSERT_EQ(rest.size(), rest_order.size());
  for (std::size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].line, rest_order[i]) << "position " << i;
  }
  EXPECT_EQ(rest[3].merged, 1u);
  EXPECT_EQ(mshr.size(), 0u);
  EXPECT_EQ(mshr.next_completion(), std::numeric_limits<Cycle>::max());
}

TEST(MshrTest, DrainAtExactFillTimeCompletes) {
  MshrFile mshr(2);
  mshr.allocate(7, 0, 100, FillOrigin::kDemand, 0);
  EXPECT_TRUE(mshr.drain_completed(99).empty());
  EXPECT_EQ(mshr.drain_completed(100).size(), 1u);
}

TEST(MshrTest, PeakOccupancyTracked) {
  MshrFile mshr(4);
  mshr.allocate(1, 0, 10, FillOrigin::kDemand, 0);
  mshr.allocate(2, 0, 10, FillOrigin::kDemand, 0);
  mshr.allocate(3, 0, 10, FillOrigin::kDemand, 0);
  mshr.drain_completed(10);
  mshr.allocate(4, 11, 20, FillOrigin::kDemand, 0);
  EXPECT_EQ(mshr.stats().peak_occupancy, 3u);
}

TEST(MshrTest, CapacityFreesAfterDrain) {
  MshrFile mshr(1);
  mshr.allocate(1, 0, 10, FillOrigin::kDemand, 0);
  EXPECT_TRUE(mshr.full());
  mshr.drain_completed(10);
  EXPECT_FALSE(mshr.full());
  EXPECT_NE(mshr.allocate(2, 11, 20, FillOrigin::kDemand, 0), nullptr);
}

TEST(MshrDeathTest, MergeIntoMissingEntryAborts) {
  MshrFile mshr(2);
  EXPECT_DEATH(mshr.merge(99, true), "missing MSHR entry");
}

}  // namespace
}  // namespace spf
