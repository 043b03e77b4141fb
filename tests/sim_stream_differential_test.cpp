// Differential test of the simulator's record feed (docs/simulator.md
// "Cursor-fed cores & the peek window"): every SimResult field of a run whose
// helper core pulls lazily synthesized records through a RecordSource window
// must be identical to the oracle's (tests/replay_oracle.hpp) — a
// materialized helper trace replayed by the record-at-a-time scheduler.
// Structured em3d/mcf/mst workloads drive the comparison, window sizes down
// to a single record stress refill at every peek, and the ExperimentContext
// seam is pinned at the SpRunSummary level — including its zero trace-record
// allocation contract (trace_hooks::record_allocations). A scalar-tags ctest
// variant replays the suite under SPF_FORCE_SCALAR_TAGS=1, and a TSan
// variant runs it race-instrumented when SPF_SANITIZE=thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "replay_oracle.hpp"
#include "sim_test_util.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"

namespace spf {
namespace {

using test::expect_same_result;

/// Small shared L2 so the workloads generate misses, evictions and MSHR
/// pressure instead of fitting in cache (mirrors replay_differential_test).
SimConfig small_machine() {
  SimConfig config;
  config.l1 = CacheGeometry(4 * 1024, 4, 64);
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  return config;
}

/// Main trace plus a round-gated helper on core 1.
std::vector<CoreStream> sp_streams(const TraceBuffer& trace,
                                   const CoreStream& helper,
                                   const SpParams& params) {
  CoreStream gated = helper;
  gated.origin = FillOrigin::kHelper;
  gated.sync = RoundSync{.leader = 0, .round_iters = params.round()};
  return {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand,
                     .sync = std::nullopt},
          gated};
}

/// The oracle cell: helper trace materialized up front, both cores replayed
/// record-at-a-time.
SimResult run_oracle(const SimConfig& config, const TraceBuffer& trace,
                     const SpParams& params,
                     const HelperGenOptions& options = {}) {
  const TraceBuffer helper = test::helper_trace(trace, params, options);
  return test::ReplayOracle::run(
      config, sp_streams(trace, CoreStream{.trace = &helper}, params));
}

/// The fused cell: helper records synthesized through a HelperViewCursor
/// window during replay.
template <std::size_t WindowN>
SimResult run_fused(const SimConfig& config, const TraceBuffer& trace,
                    const SpParams& params,
                    const HelperGenOptions& options = {}) {
  CursorWindowSource<HelperViewCursor, WindowN> feed(
      HelperViewCursor(trace, params, options));
  CmpSimulator sim(config);
  const SimResult result =
      sim.run(sp_streams(trace, CoreStream{.source = &feed}, params));
  // The window source must have served exactly the oracle stream's record
  // count — feed_consume's refill invariant ends the stream only when the
  // cursor is exhausted.
  EXPECT_EQ(feed.records_served(),
            test::helper_trace(trace, params, options).size());
  return result;
}

void pin_all_feed_variants(const TraceBuffer& trace, const SpParams& params,
                           const SimConfig& config) {
  const SimResult reference = run_oracle(config, trace, params);

  {
    SCOPED_TRACE("fused, production window");
    expect_same_result(reference, run_fused<4096>(config, trace, params));
  }
  {
    // One-record windows put a refill behind every consume, so the pending
    // peek crosses a window boundary at every step.
    SCOPED_TRACE("fused single-record window");
    expect_same_result(reference, run_fused<1>(config, trace, params));
  }
  {
    // A window size coprime to the round structure lands refills mid-round.
    SCOPED_TRACE("fused tiny window");
    expect_same_result(reference, run_fused<7>(config, trace, params));
  }
  {
    // Materialized helper served as one BufferCursor window.
    SCOPED_TRACE("materialized helper buffer");
    const TraceBuffer helper = test::helper_trace(trace, params);
    CmpSimulator sim(config);
    expect_same_result(
        reference,
        sim.run(sp_streams(trace, CoreStream{.trace = &helper}, params)));
  }
}

TEST(SimStreamDifferentialTest, Em3dAllFeedVariantsAgree) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  pin_all_feed_variants(trace, SpParams::from_distance_rp(8, 0.5),
                        small_machine());
}

TEST(SimStreamDifferentialTest, McfAllFeedVariantsAgree) {
  McfConfig wl;
  wl.nodes = 1200;
  wl.arcs = 7000;
  wl.passes = 1;
  const TraceBuffer trace = McfWorkload(wl).emit_trace();
  pin_all_feed_variants(trace, SpParams::from_distance_rp(4, 1.0),
                        small_machine());
}

TEST(SimStreamDifferentialTest, MstAllFeedVariantsAgree) {
  MstConfig wl;
  wl.vertices = 500;
  wl.degree = 8;
  wl.buckets = 32;
  const TraceBuffer trace = MstWorkload(wl).emit_trace();
  pin_all_feed_variants(trace, SpParams::from_distance_rp(6, 0.5),
                        small_machine());
}

TEST(SimStreamDifferentialTest, OccupancySamplingAgreesAcrossFeeds) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(8, 0.5);
  SimConfig config = small_machine();
  // Small interval: sample points land mid-window, so the windowed feed must
  // honor them at the same records the oracle does.
  config.occupancy_sample_interval = 512;
  expect_same_result(run_oracle(config, trace, params),
                     run_fused<64>(config, trace, params));
}

// The ExperimentContext seam: run_sp_once against the oracle SP cell, pinned
// at the SpRunSummary level — the same numbers sweep cells and perf_smoke's
// replay_checksum are built from — plus the context's zero-allocation
// contract.
TEST(SimStreamDifferentialTest, ExperimentContextPathsAgree) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();

  SpExperimentConfig cfg;
  cfg.sim = small_machine();
  cfg.params = SpParams::from_distance_rp(8, 0.5);

  ExperimentContext ctx;
  const SpRunSummary first = ctx.run_sp_once(trace, cfg);
  const std::uint64_t allocs_before = trace_hooks::record_allocations();
  const SpRunSummary fused = ctx.run_sp_once(trace, cfg);
  EXPECT_EQ(trace_hooks::record_allocations() - allocs_before, 0u)
      << "fused replay must not grow trace-record storage";
  const SpRunSummary oracle = test::run_sp_once(trace, cfg);

  EXPECT_EQ(first.runtime, fused.runtime);
  EXPECT_EQ(fused.runtime, oracle.runtime);
  EXPECT_EQ(fused.l2_lookups, oracle.l2_lookups);
  EXPECT_EQ(fused.totally_hits, oracle.totally_hits);
  EXPECT_EQ(fused.partially_hits, oracle.partially_hits);
  EXPECT_EQ(fused.totally_misses, oracle.totally_misses);
  EXPECT_EQ(fused.memory_requests, oracle.memory_requests);
  EXPECT_EQ(fused.helper_finish, oracle.helper_finish);
  EXPECT_EQ(fused.pollution.case2_helper_displaced,
            oracle.pollution.case2_helper_displaced);
  EXPECT_EQ(fused.pollution.total_evictions, oracle.pollution.total_evictions);
}

// Prefetch-instruction helper kind flows through the cursor transform too.
TEST(SimStreamDifferentialTest, PrefetchInstructionHelperAgrees) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  const SpParams params = SpParams::from_distance_rp(4, 0.5);
  const HelperGenOptions options{.use_prefetch_instructions = true};
  expect_same_result(run_oracle(small_machine(), trace, params, options),
                     run_fused<128>(small_machine(), trace, params, options));
}

}  // namespace
}  // namespace spf
