// Property tests for the lazy trace adaptors (spf/trace/trace_cursor.hpp,
// HelperViewCursor in spf/core/helper_gen.hpp): over randomized traces and
// SP parameters, every cursor stream must equal the materializing oracle
// (tests/replay_oracle.hpp) record-for-record —
//
//   * MergeByIterCursor == the oracle's merge_by_iter, including the
//     documented a-before-b tie order and on inputs that are not sorted by
//     outer_iter (the merge is defined by its head-comparison rule, not by
//     sortedness);
//   * three-way MergeByIterCursor == the left fold of two-way merges on
//     iter-sorted inputs;
//   * HelperViewCursor == the oracle's helper_trace across randomized
//     SpParams, covering a_ski = 0, round > trace length, empty traces,
//     prefetch-instruction helpers, and the a_pre = 0 assertion (both die);
//   * HelperViewCursor::fill (the bulk window refill) == the advance loop
//     for arbitrary chunk sizes;
//   * re-anchored HelperViewCursor == the oracle helper after the
//     refinement's outer_iter -= A_SKI mutation pass;
//   * make_helper_trace (the drain of HelperViewCursor) == the oracle;
//   * the round-labelled HelperViewCursor == the iteration-labelled stream
//     relabelled with each record's round start, one round per fill();
//     retune() keeps the last served round and switches parameters after it;
//   * reset() replays the identical stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "replay_oracle.hpp"
#include "spf/common/rng.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {
namespace {

template <TraceCursor Cursor>
std::vector<TraceRecord> drain(Cursor& cursor) {
  std::vector<TraceRecord> out;
  for (; !cursor.done(); cursor.advance()) out.push_back(cursor.current());
  return out;
}

std::vector<TraceRecord> to_vector(const TraceBuffer& trace) {
  return {trace.begin(), trace.end()};
}

AccessKind random_kind(Xoshiro256& rng) {
  switch (rng.below(4)) {
    case 0: return AccessKind::kWrite;
    default: return AccessKind::kRead;
  }
}

/// Random trace with workload-shaped (non-decreasing, grouped) outer_iters
/// and a mix of spine/delinquent flags.
TraceBuffer random_trace(std::uint64_t seed, std::size_t max_records) {
  Xoshiro256 rng(seed);
  TraceBuffer t;
  const std::size_t n = rng.below(max_records + 1);
  std::uint32_t iter = static_cast<std::uint32_t>(rng.below(4));
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.below(3) == 0) iter += static_cast<std::uint32_t>(rng.below(3));
    TraceFlags flags = 0;
    if (rng.below(4) == 0) flags |= kFlagSpine;
    if (rng.below(3) == 0) flags |= kFlagDelinquent;
    t.emit((rng.next() & 0xffff) * 64, iter, random_kind(rng),
           static_cast<std::uint8_t>(rng.below(8)), flags,
           static_cast<std::uint32_t>(rng.below(16)));
  }
  return t;
}

/// Random trace with *arbitrary* (unsorted) outer_iters.
TraceBuffer random_unsorted_trace(std::uint64_t seed, std::size_t max_records) {
  Xoshiro256 rng(seed);
  TraceBuffer t;
  const std::size_t n = rng.below(max_records + 1);
  for (std::size_t i = 0; i < n; ++i) {
    t.emit((rng.next() & 0xffff) * 64, static_cast<std::uint32_t>(rng.below(32)),
           random_kind(rng), static_cast<std::uint8_t>(rng.below(8)),
           static_cast<TraceFlags>(rng.below(4)),
           static_cast<std::uint32_t>(rng.below(16)));
  }
  return t;
}

SpParams random_params(Xoshiro256& rng) {
  // Biased toward edge shapes: a_ski = 0 and rounds longer than the trace.
  SpParams p;
  switch (rng.below(4)) {
    case 0: p.a_ski = 0; break;
    case 1: p.a_ski = static_cast<std::uint32_t>(1 + rng.below(4)); break;
    case 2: p.a_ski = static_cast<std::uint32_t>(1 + rng.below(64)); break;
    default: p.a_ski = static_cast<std::uint32_t>(1000 + rng.below(100000));
  }
  p.a_pre = static_cast<std::uint32_t>(1 + rng.below(8));
  return p;
}

class MergePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergePropertyTest, TwoWayCursorEqualsMaterializedMerge) {
  const TraceBuffer a = random_trace(GetParam() * 2 + 1, 200);
  const TraceBuffer b = random_trace(GetParam() * 2 + 2, 200);
  const TraceBuffer merged = test::merge_by_iter(a, b);

  MergeByIterCursor cursor{TraceViewCursor(a), TraceViewCursor(b)};
  EXPECT_EQ(drain(cursor), to_vector(merged));
}

TEST_P(MergePropertyTest, UnsortedInputsStillMatchTheHeadComparisonRule) {
  const TraceBuffer a = random_unsorted_trace(GetParam() * 3 + 1, 150);
  const TraceBuffer b = random_unsorted_trace(GetParam() * 3 + 2, 150);
  const TraceBuffer merged = test::merge_by_iter(a, b);

  MergeByIterCursor cursor{TraceViewCursor(a), TraceViewCursor(b)};
  EXPECT_EQ(drain(cursor), to_vector(merged));
}

TEST_P(MergePropertyTest, ThreeWayCursorEqualsFoldedTwoWayMerge) {
  const TraceBuffer a = random_trace(GetParam() * 5 + 1, 120);
  const TraceBuffer b = random_trace(GetParam() * 5 + 2, 120);
  const TraceBuffer c = random_trace(GetParam() * 5 + 3, 120);
  const TraceBuffer folded =
      test::merge_by_iter(test::merge_by_iter(a, b), c);

  MergeByIterCursor cursor{TraceViewCursor(a), TraceViewCursor(b),
                           TraceViewCursor(c)};
  EXPECT_EQ(drain(cursor), to_vector(folded));
}

TEST_P(MergePropertyTest, ResetReplaysTheSameStream) {
  const TraceBuffer a = random_trace(GetParam() * 7 + 1, 100);
  const TraceBuffer b = random_trace(GetParam() * 7 + 2, 100);
  MergeByIterCursor cursor{TraceViewCursor(a), TraceViewCursor(b)};
  const std::vector<TraceRecord> first = drain(cursor);
  cursor.reset();
  EXPECT_EQ(drain(cursor), first);
}

class HelperViewPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HelperViewPropertyTest, CursorEqualsMaterializedHelper) {
  Xoshiro256 rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  const TraceBuffer main_trace = random_trace(GetParam(), 300);
  for (int round = 0; round < 8; ++round) {
    const SpParams params = random_params(rng);
    HelperGenOptions options;
    options.use_prefetch_instructions = rng.below(2) == 1;
    options.helper_compute_gap = static_cast<std::uint16_t>(rng.below(8));
    SCOPED_TRACE(params.to_string());

    const TraceBuffer helper =
        test::helper_trace(main_trace, params, options);
    HelperViewCursor cursor(main_trace, params, options);
    EXPECT_EQ(drain(cursor), to_vector(helper));

    cursor.reset();
    EXPECT_EQ(drain(cursor), to_vector(helper));

    EXPECT_EQ(to_vector(make_helper_trace(main_trace, params, options)),
              to_vector(helper));
  }
}

TEST_P(HelperViewPropertyTest, BulkFillEqualsAdvanceLoop) {
  // fill() (the BulkTraceCursor refinement CursorWindowSource prefers) must
  // hand out exactly the advance-loop stream, for any chunk size — including
  // chunks that end mid-round and a final short chunk.
  Xoshiro256 rng(GetParam() ^ 0xda942042e4dd58b5ull);
  const TraceBuffer main_trace = random_trace(GetParam() + 2000, 300);
  for (int round = 0; round < 8; ++round) {
    const SpParams params = random_params(rng);
    HelperGenOptions options;
    options.use_prefetch_instructions = rng.below(2) == 1;
    options.helper_compute_gap = static_cast<std::uint16_t>(rng.below(8));
    const std::size_t chunk = 1 + rng.below(17);
    SCOPED_TRACE(params.to_string() + " chunk=" + std::to_string(chunk));

    HelperViewCursor reference(main_trace, params, options);
    const std::vector<TraceRecord> expected = drain(reference);

    HelperViewCursor cursor(main_trace, params, options);
    std::vector<TraceRecord> bulk;
    std::vector<TraceRecord> buf(chunk);
    while (!cursor.done()) {
      const std::size_t n = cursor.fill(buf.data(), buf.size());
      ASSERT_GT(n, 0u);
      bulk.insert(bulk.end(), buf.begin(), buf.begin() + n);
    }
    EXPECT_EQ(cursor.fill(buf.data(), buf.size()), 0u);  // exhausted
    EXPECT_EQ(bulk, expected);
  }
}

TEST_P(HelperViewPropertyTest, ReanchoredCursorEqualsMutatedHelper) {
  Xoshiro256 rng(GetParam() ^ 0x5851f42d4c957f2dull);
  const TraceBuffer main_trace = random_trace(GetParam() + 1000, 300);
  for (int round = 0; round < 8; ++round) {
    const SpParams params = random_params(rng);
    SCOPED_TRACE(params.to_string());

    // The refinement's materialized transform: helper, then re-anchor.
    TraceBuffer helper = test::helper_trace(main_trace, params);
    for (TraceRecord& r : helper.mutable_records()) {
      r.outer_iter =
          r.outer_iter >= params.a_ski ? r.outer_iter - params.a_ski : 0;
    }

    HelperViewCursor cursor(main_trace, params, {}, /*re_anchor=*/true);
    EXPECT_EQ(drain(cursor), to_vector(helper));
  }
}

/// The round-labelled helper stream retuned from `p1` to `p2` at iteration
/// `switch_at`: rounds of p1 on the grid from 0 before it, rounds of p2 from
/// `switch_at` on, every kept record labelled with its round's first
/// iteration.
std::vector<TraceRecord> retuned_reference(const TraceBuffer& main_trace,
                                           const SpParams& p1,
                                           std::uint64_t switch_at,
                                           const SpParams& p2) {
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : main_trace) {
    if (r.kind() == AccessKind::kWrite) continue;
    const bool late = r.outer_iter >= switch_at;
    const SpParams& p = late ? p2 : p1;
    const std::uint64_t base = late ? switch_at : 0;
    const std::uint64_t begin =
        base + (r.outer_iter - base) / p.round() * p.round();
    if (r.outer_iter - begin < p.a_ski && !r.is_spine()) continue;
    out.push_back(TraceRecord::make(r.addr, static_cast<std::uint32_t>(begin),
                                    AccessKind::kRead, r.site, r.flags(), 0));
  }
  return out;
}

TEST_P(HelperViewPropertyTest, RoundLabelledViewServesOneRoundPerFill) {
  Xoshiro256 rng(GetParam() ^ 0x2545f4914f6cdd1dull);
  const TraceBuffer main_trace = random_trace(GetParam() + 3000, 300);
  for (int round = 0; round < 8; ++round) {
    const SpParams params = random_params(rng);
    SCOPED_TRACE(params.to_string());
    HelperViewCursor iteration_view(main_trace, params);
    std::vector<TraceRecord> expected = drain(iteration_view);
    for (TraceRecord& r : expected) {
      r.outer_iter = r.outer_iter / params.round() * params.round();
    }

    HelperViewCursor view =
        HelperViewCursor::round_labelled(main_trace, params);
    EXPECT_EQ(drain(view), expected);
    view.reset();
    std::vector<TraceRecord> filled;
    std::vector<TraceRecord> buf(1 + rng.below(64));
    while (const std::size_t n = view.fill(buf.data(), buf.size())) {
      for (std::size_t i = 1; i < n; ++i) {
        EXPECT_EQ(buf[i].outer_iter, buf[0].outer_iter)
            << "fill crossed a round";
      }
      if (n < buf.size() && !view.done()) {
        EXPECT_NE(view.current().outer_iter, buf[0].outer_iter)
            << "fill stopped short inside a round";
      }
      filled.insert(filled.end(), buf.begin(), buf.begin() + n);
    }
    EXPECT_EQ(filled, expected);
  }
}

TEST_P(HelperViewPropertyTest, RetuneSwitchesAfterTheLastServedRound) {
  Xoshiro256 rng(GetParam() ^ 0x94d049bb133111ebull);
  const TraceBuffer main_trace = random_trace(GetParam() + 4000, 300);
  for (int round = 0; round < 8; ++round) {
    const SpParams p1 = random_params(rng);
    const SpParams p2 = random_params(rng);
    const bool bulk = rng.below(2) == 1;
    const std::size_t prefix = rng.below(40);
    SCOPED_TRACE(p1.to_string() + " -> " + p2.to_string() +
                 (bulk ? " via fill" : " via advance"));

    // Serve a prefix, then retune: the last served record's round keeps p1.
    HelperViewCursor view = HelperViewCursor::round_labelled(main_trace, p1);
    std::vector<TraceRecord> got;
    std::vector<TraceRecord> buf(1 + rng.below(8));
    while (got.size() < prefix && !view.done()) {
      if (bulk) {
        const std::size_t n = view.fill(buf.data(), buf.size());
        got.insert(got.end(), buf.begin(), buf.begin() + n);
      } else {
        got.push_back(view.current());
        view.advance();
      }
    }
    const std::uint64_t switch_at =
        (got.empty() ? 0 : std::uint64_t{got.back().outer_iter}) + p1.round();
    view.retune(p2);
    const std::vector<TraceRecord> rest = drain(view);
    got.insert(got.end(), rest.begin(), rest.end());
    EXPECT_EQ(got, retuned_reference(main_trace, p1, switch_at, p2));
  }
}

TEST(HelperViewDeathTest, OnlyTheRoundLabelledViewRetunes) {
  const TraceBuffer t = random_trace(1, 10);
  HelperViewCursor view(t, SpParams{.a_ski = 1, .a_pre = 1});
  EXPECT_DEATH(view.retune(SpParams{.a_ski = 2, .a_pre = 1}), "round-labelled");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));
INSTANTIATE_TEST_SUITE_P(Seeds, HelperViewPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(HelperViewEdgeTest, EmptyTraceYieldsEmptyView) {
  const TraceBuffer empty;
  HelperViewCursor cursor(empty, SpParams{.a_ski = 2, .a_pre = 2});
  EXPECT_TRUE(cursor.done());
  cursor.reset();
  EXPECT_TRUE(cursor.done());
}

TEST(HelperViewEdgeTest, SkipOnlyRoundsKeepOnlySpine) {
  TraceBuffer t;
  t.emit(0, 0, AccessKind::kRead, 0, kFlagSpine);
  t.emit(64, 0, AccessKind::kRead, 1);
  t.emit(128, 1, AccessKind::kRead, 2);
  // Round of 9 over 2 iterations: every record is in the skip phase.
  HelperViewCursor cursor(t, SpParams{.a_ski = 8, .a_pre = 1});
  const std::vector<TraceRecord> kept = drain(cursor);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].addr, 0u);
  EXPECT_TRUE(kept[0].is_spine());
}

TEST(HelperViewDeathTest, ZeroPreExecuteDiesLikeTheReference) {
  const TraceBuffer t = random_trace(1, 10);
  const SpParams params{.a_ski = 3, .a_pre = 0};
  EXPECT_DEATH((void)test::helper_trace(t, params), "pre-execute");
  EXPECT_DEATH(HelperViewCursor(t, params), "pre-execute");
}

}  // namespace
}  // namespace spf
