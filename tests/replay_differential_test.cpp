// Differential test of the batched replay loop (docs/simulator.md): every
// SimResult field must be identical to the record-at-a-time oracle
// (tests/replay_oracle.hpp), which runs one full scheduler round per record.
// Random traces come from the shared IR program generator; a structured EM3D
// workload and single-stream / occupancy-sampling variants cover the paths
// randomness rarely exercises, and 3- and 4-core topologies exercise the
// batched loop's gated-leader mask and its split lower-id / higher-id rival
// limits. Also runs with SPF_FORCE_SCALAR_TAGS=1 via a dedicated ctest entry
// so the scalar tag-compare fallback is held to the same bar.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ir_fuzz_util.hpp"
#include "replay_oracle.hpp"
#include "sim_test_util.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/ir/interp.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"

namespace spf {
namespace {

using test::expect_same_result;
using test::helper_trace;

/// Runs identical streams through the simulator and the oracle and compares
/// everything.
void run_both_and_compare(const SimConfig& config,
                          const std::vector<CoreStream>& streams) {
  CmpSimulator batched(config);
  expect_same_result(batched.run(streams),
                     test::ReplayOracle::run(config, streams));
}

/// Small shared L2 so random traces actually generate misses, evictions and
/// MSHR pressure instead of fitting in cache.
SimConfig small_machine() {
  SimConfig config;
  config.l1 = CacheGeometry(4 * 1024, 4, 64);
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  return config;
}

class ReplayDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplayDifferentialTest, RandomTraceMainPlusHelper) {
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const SpParams params{.a_ski = 2, .a_pre = 3};
  const TraceBuffer helper = helper_trace(interp.trace, params);

  run_both_and_compare(
      small_machine(),
      {CoreStream{.trace = &interp.trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params.round()}}});
}

TEST_P(ReplayDifferentialTest, RandomTraceSingleStream) {
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  run_both_and_compare(
      small_machine(),
      {CoreStream{.trace = &interp.trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt}});
}

TEST_P(ReplayDifferentialTest, RandomTraceWithOccupancySampling) {
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const SpParams params{.a_ski = 1, .a_pre = 4};
  const TraceBuffer helper = helper_trace(interp.trace, params);

  SimConfig config = small_machine();
  // Deliberately small interval: samples land mid-batch, so the batched
  // engine must honor sample points record-by-record.
  config.occupancy_sample_interval = 512;
  run_both_and_compare(
      config,
      {CoreStream{.trace = &interp.trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params.round()}}});
}

/// A second main thread's trace for the multi-core topologies: another
/// random program, so the co-runners contend for the same small L2.
TraceBuffer corunner_trace(std::uint64_t seed) {
  ir::VirtualMemory vm;
  return ir::interpret(ir::random_program(seed + 1000, vm), vm).trace;
}

TEST_P(ReplayDifferentialTest, RandomTraceThreeCoreCorun) {
  // The co-run topology of bench/ablate_corun: two main threads plus the
  // first one's helper, gated on core 0. The helper sits above both mains,
  // so core 1 is a lower-id rival of it and a higher-id rival of core 0.
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";
  const TraceBuffer other = corunner_trace(GetParam());

  const SpParams params{.a_ski = 2, .a_pre = 3};
  const TraceBuffer helper = helper_trace(interp.trace, params);
  run_both_and_compare(
      small_machine(),
      {CoreStream{.trace = &interp.trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &other, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params.round()}}});
}

TEST_P(ReplayDifferentialTest, RandomTraceFourCoreTwoPairs) {
  // The topology of SimulatorTest.TwoHelpersWithDifferentLeadersCoexist:
  // two main threads, each with its own round-gated helper, so the batched
  // loop's gated-leader mask carries two different leaders.
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";
  const TraceBuffer other = corunner_trace(GetParam());

  const SpParams params_a{.a_ski = 2, .a_pre = 3};
  const SpParams params_b{.a_ski = 1, .a_pre = 2};
  const TraceBuffer helper_a = helper_trace(interp.trace, params_a);
  const TraceBuffer helper_b = helper_trace(other, params_b);
  run_both_and_compare(
      small_machine(),
      {CoreStream{.trace = &interp.trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &other, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper_a,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params_a.round()}},
       CoreStream{.trace = &helper_b,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 1,
                                    .round_iters = params_b.round()}}});
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ReplayDifferentialEm3dTest, StructuredWorkloadAgrees) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  Em3dWorkload workload(wl);
  const TraceBuffer trace = workload.emit_trace();

  const SpParams params = SpParams::from_distance_rp(8, 0.5);
  const TraceBuffer helper = helper_trace(trace, params);

  SimConfig config = small_machine();
  config.occupancy_sample_interval = 4096;
  run_both_and_compare(
      config,
      {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params.round()}}});
}

TEST(ReplayDifferentialEm3dTest, NoHwPrefetchAgrees) {
  Em3dConfig wl;
  wl.nodes = 2000;
  wl.arity = 8;
  wl.passes = 1;
  Em3dWorkload workload(wl);
  const TraceBuffer trace = workload.emit_trace();

  const SpParams params = SpParams::from_distance_rp(4, 1.0);
  const TraceBuffer helper = helper_trace(trace, params);

  SimConfig config = small_machine();
  config.hw_prefetch = false;
  run_both_and_compare(
      config,
      {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper,
                  .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = params.round()}}});
}

TEST(ReplayDeathTest, MoreThanSixtyFourStreamsRejected) {
  // The batched loop tracks gated cores' leaders in one 64-bit mask.
  TraceBuffer trace;
  trace.emit(0, 0, AccessKind::kRead, 0);
  const std::vector<CoreStream> streams(65, CoreStream{.trace = &trace});
  CmpSimulator sim(small_machine());
  EXPECT_DEATH((void)sim.run(streams), "at most 64 streams");
}

}  // namespace
}  // namespace spf
