// Equivalence coverage for the private-L1 fast paths:
//   * LruStack (spf/cache/lru_stack.hpp) gives Cache(kLru)'s hit/miss
//     sequence under access-then-fill-on-miss, at every power-of-two way
//     count from 1 to 64 and several set counts, over seeded random line
//     streams;
//   * L1HitBitmap::compute (spf/sim/l1_hits.hpp) equals a live LRU L1 record
//     for record on em3d, mcf, mst, em3d-late and random IR traces;
//   * a bitmap-fed main core replays exactly like a live one: every
//     SimResult field of the simulator, and ExperimentContext::run_original,
//     run_sp_once and run_adaptive field for field;
//   * a bitmap whose size or L1 geometry does not match its trace, or that
//     rides a stream fed by a record source, is rejected with
//     std::invalid_argument.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir_fuzz_util.hpp"
#include "replay_oracle.hpp"
#include "sim_test_util.hpp"
#include "spf/cache/cache.hpp"
#include "spf/cache/lru_stack.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/ir/interp.hpp"
#include "spf/sim/l1_hits.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace spf {
namespace {

using test::expect_identical;
using test::expect_same_result;
using test::expect_same_summary;

// ---- LruStack == Cache(kLru) ------------------------------------------------

TEST(LruStackTest, MatchesLruCacheAtEveryWayCount) {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::uint32_t ways = 1; ways <= 64; ways *= 2) {
    for (const std::uint64_t sets : {1u, 2u, 16u, 64u}) {
      const CacheGeometry geometry(sets * ways * 64, ways, 64);
      const std::uint64_t capacity = sets * ways;
      // Footprints from half the capacity (mostly hits) to eight times it
      // (mostly misses); half the references revisit one of the last eight
      // lines, so hits land at every stack depth.
      for (const std::uint64_t footprint :
           {capacity / 2 + 1, capacity, 2 * capacity, 8 * capacity}) {
        SCOPED_TRACE(geometry.to_string() + " footprint " +
                     std::to_string(footprint));
        std::mt19937_64 rng(ways * 1000 + sets * 10 + footprint);
        Cache reference(geometry, ReplacementKind::kLru);
        LruStack stack(geometry);
        std::vector<LineAddr> recent(8, LineAddr{1} << 40);
        for (std::size_t i = 0; i < 4000; ++i) {
          const LineAddr line = rng() % 2 == 0
                                    ? recent[rng() % recent.size()]
                                    : (LineAddr{1} << 40) + rng() % footprint;
          recent[i % recent.size()] = line;
          const bool want = reference.access(line, AccessKind::kRead, 0);
          if (!want) reference.fill(line, FillOrigin::kDemand, 0, 0);
          ASSERT_EQ(stack.access(line), want) << "reference " << i;
          ++(want ? hits : misses);
        }
      }
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

TEST(LruStackTest, ResetIsCold) {
  const CacheGeometry geometry(4096, 4, 64);
  LruStack stack(geometry);
  for (LineAddr line = 0; line < 64; ++line) EXPECT_FALSE(stack.access(line));
  for (LineAddr line = 0; line < 64; ++line) EXPECT_TRUE(stack.access(line));
  stack.reset(geometry);
  for (LineAddr line = 0; line < 64; ++line) EXPECT_FALSE(stack.access(line));
}

// ---- L1HitBitmap == live L1 -------------------------------------------------

/// Replays `trace` through a live Cache(kLru) the way the simulator's demand
/// path used to (access, fill on a miss, prefetch records skipped) and
/// checks every record's bit.
void expect_bitmap_matches_live_l1(const TraceBuffer& trace,
                                   const CacheGeometry& l1) {
  SCOPED_TRACE(l1.to_string());
  const L1HitBitmap bitmap = L1HitBitmap::compute(trace, l1);
  ASSERT_EQ(bitmap.size(), trace.size());
  EXPECT_EQ(bitmap.l1(), l1);
  Cache live(l1, ReplacementKind::kLru);
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    bool hit = false;
    if (trace[i].kind() != AccessKind::kPrefetch) {
      const LineAddr line = l1.line_of(trace[i].addr);
      hit = live.access(line, trace[i].kind(), 0);
      if (!hit) live.fill(line, FillOrigin::kDemand, 0, 0);
    }
    ASSERT_EQ(bitmap.hit(i), hit) << "record " << i;
    hits += hit;
  }
  EXPECT_GT(hits, 0u) << "trace never hits its L1: nothing is compared";
}

const CacheGeometry kSmallL1(4 * 1024, 4, 64);

Em3dConfig small_em3d() {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  return wl;
}

/// em3d-late: a reduced-arity prelude pass before the full-arity one.
Em3dConfig small_em3d_late() {
  Em3dConfig wl = small_em3d();
  wl.passes = 2;
  wl.prelude_arity = 2;
  return wl;
}

McfConfig small_mcf() {
  McfConfig wl;
  wl.nodes = 1000;
  wl.arcs = 6000;
  wl.passes = 2;
  return wl;
}

MstConfig small_mst() {
  MstConfig wl;
  wl.vertices = 400;
  wl.degree = 8;
  wl.buckets = 32;
  return wl;
}

TEST(L1HitBitmapTest, MatchesLiveL1OnWorkloads) {
  const std::vector<std::pair<std::string, TraceBuffer>> traces = {
      {"em3d", Em3dWorkload(small_em3d()).emit_trace()},
      {"em3d-late", Em3dWorkload(small_em3d_late()).emit_trace()},
      {"mcf", McfWorkload(small_mcf()).emit_trace()},
      {"mst", MstWorkload(small_mst()).emit_trace()},
  };
  for (const auto& [name, trace] : traces) {
    SCOPED_TRACE(name);
    expect_bitmap_matches_live_l1(trace, CacheGeometry::core2_l1d());
    expect_bitmap_matches_live_l1(trace, kSmallL1);
  }
}

class L1HitBitmapRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(L1HitBitmapRandomTest, MatchesLiveL1OnRandomProgram) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";
  expect_bitmap_matches_live_l1(interp.trace, CacheGeometry::core2_l1d());
  expect_bitmap_matches_live_l1(interp.trace, kSmallL1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, L1HitBitmapRandomTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(L1HitBitmapTest, PrefetchRecordsNeverTouchTheL1) {
  // A software prefetch to a line the next demand read wants must not warm
  // the L1: the read misses, and the prefetch's own bit is 0.
  TraceBuffer trace;
  trace.emit(0x10000, 0, AccessKind::kPrefetch, 0);
  trace.emit(0x10000, 0, AccessKind::kRead, 0);
  trace.emit(0x10000, 0, AccessKind::kWrite, 0);
  trace.emit(0x10000, 0, AccessKind::kPrefetch, 0);
  const L1HitBitmap bitmap = L1HitBitmap::compute(trace, kSmallL1);
  ASSERT_EQ(bitmap.size(), 4u);
  EXPECT_FALSE(bitmap.hit(0));
  EXPECT_FALSE(bitmap.hit(1));
  EXPECT_TRUE(bitmap.hit(2));
  EXPECT_FALSE(bitmap.hit(3));
}

// ---- bitmap-fed runs == live-L1 runs ---------------------------------------

SimConfig small_machine() {
  SimConfig config;
  config.l1 = kSmallL1;
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  return config;
}

/// Main trace alone, and main plus its materialized helper, each with a live
/// main-core L1 and with the bitmap: every SimResult field (per-core l1_hits
/// included) must agree, through the batched loop and the record-at-a-time
/// oracle alike.
void expect_bitmap_run_identical(const TraceBuffer& trace,
                                 const SimConfig& config) {
  const L1HitBitmap bitmap = L1HitBitmap::compute(trace, config.l1);
  const TraceBuffer helper =
      test::helper_trace(trace, SpParams{.a_ski = 4, .a_pre = 4});
  for (const bool with_helper : {false, true}) {
    SCOPED_TRACE(with_helper ? "main + helper" : "main only");
    std::vector<CoreStream> live = {CoreStream{.trace = &trace}};
    if (with_helper) {
      live.push_back(CoreStream{
          .trace = &helper,
          .origin = FillOrigin::kHelper,
          .sync = RoundSync{.leader = 0, .round_iters = 8}});
    }
    std::vector<CoreStream> fed = live;
    fed[0].l1_hits = &bitmap;
    CmpSimulator sim(config);
    const SimResult want = sim.run(live);
    expect_same_result(sim.run(fed), want);
    expect_same_result(test::ReplayOracle::run(config, fed), want);
  }
}

TEST(L1HitBitmapRunTest, SimulatorMatchesLiveL1OnEm3d) {
  SimConfig config = small_machine();
  config.provenance = true;
  config.occupancy_sample_interval = 5000;
  expect_bitmap_run_identical(Em3dWorkload(small_em3d()).emit_trace(), config);
}

TEST_P(L1HitBitmapRandomTest, SimulatorMatchesLiveL1) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";
  expect_bitmap_run_identical(interp.trace, small_machine());
}

TEST(L1HitBitmapRunTest, ContextRunsMatchWithAndWithoutBitmap) {
  SpExperimentConfig cfg;
  cfg.sim = small_machine();
  cfg.sim.provenance = true;
  cfg.params = SpParams{.a_ski = 8, .a_pre = 8};
  AdaptiveConfig acfg;
  acfg.min_distance = 1;
  acfg.max_distance = 64;
  acfg.initial_distance = 16;
  acfg.pollution_high_per_mille = 0.0;
  acfg.pollution_low_per_mille = 0.0;
  acfg.interval_iters = 150;
  SpExperimentConfig adaptive_base = cfg;
  adaptive_base.params = SpParams{};

  const std::vector<std::pair<std::string, TraceBuffer>> traces = {
      {"em3d", Em3dWorkload(small_em3d()).emit_trace()},
      {"em3d-late", Em3dWorkload(small_em3d_late()).emit_trace()},
      {"mcf", McfWorkload(small_mcf()).emit_trace()},
  };
  // One context for every run, alternating live and bitmap-fed, so a stale
  // L1 left behind by either path would show.
  ExperimentContext ctx;
  for (const auto& [name, trace] : traces) {
    SCOPED_TRACE(name);
    const L1HitBitmap bitmap = L1HitBitmap::compute(trace, cfg.sim.l1);
    expect_same_summary(ctx.run_original(trace, cfg, &bitmap),
                        ctx.run_original(trace, cfg));
    expect_same_summary(ctx.run_sp_once(trace, cfg, &bitmap),
                        ctx.run_sp_once(trace, cfg));
    const AdaptiveRunResult fed =
        ctx.run_adaptive(trace, adaptive_base, acfg, &bitmap);
    const AdaptiveRunResult live = ctx.run_adaptive(trace, adaptive_base, acfg);
    expect_identical(fed, live);
    EXPECT_GT(live.decreases, 0u) << "the walk must actually retune";
  }
}

// ---- mismatched bitmaps are rejected ----------------------------------------

TEST(L1HitBitmapRunTest, MismatchedBitmapThrows) {
  const TraceBuffer trace = Em3dWorkload(small_em3d()).emit_trace();
  TraceBuffer shorter;
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    shorter.mutable_records().push_back(trace[i]);
  }
  SpExperimentConfig cfg;
  cfg.sim = small_machine();
  cfg.params = SpParams{.a_ski = 8, .a_pre = 8};
  SpExperimentConfig adaptive_base = cfg;
  adaptive_base.params = SpParams{};
  const AdaptiveConfig acfg;

  const L1HitBitmap wrong_size = L1HitBitmap::compute(shorter, cfg.sim.l1);
  const L1HitBitmap wrong_l1 =
      L1HitBitmap::compute(trace, CacheGeometry::core2_l1d());
  ExperimentContext ctx;
  for (const L1HitBitmap* bad : {&wrong_size, &wrong_l1}) {
    EXPECT_THROW((void)ctx.run_original(trace, cfg, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)ctx.run_sp_once(trace, cfg, bad),
                 std::invalid_argument);
    EXPECT_THROW((void)ctx.run_adaptive(trace, adaptive_base, acfg, bad),
                 std::invalid_argument);
  }
  // A rejected run leaves the context reusable.
  const L1HitBitmap good = L1HitBitmap::compute(trace, cfg.sim.l1);
  expect_same_summary(ctx.run_sp_once(trace, cfg, &good),
                      run_sp_once(trace, cfg));

  // A bitmap indexes a trace's records, so a source-fed stream cannot
  // carry one.
  BufferCursor cursor(trace);
  CmpSimulator sim(cfg.sim);
  EXPECT_THROW(
      (void)sim.run({CoreStream{.source = &cursor, .l1_hits = &good}}),
      std::invalid_argument);
}

}  // namespace
}  // namespace spf
