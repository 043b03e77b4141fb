// Differential harness for the streaming trace pipeline: the distance-bound
// refinement streams the combined main+helper stream lazily through
// TraceCursor adaptors (HelperViewCursor + MergeByIterCursor), and must
// produce bit-identical results to Set Affinity measured over the stream the
// oracle materializes (tests/replay_oracle.hpp: helper generator, re-anchor
// pass, two-way merge).
//
// Seeded random IR traces come from the shared program generator; a
// structured multi-invocation EM3D workload covers the per-invocation SA
// split and realistic spine/delinquent mixes. Both the full WorkloadSaResult
// and the refined DistanceBound are compared field-for-field, and the
// refinement is held to *zero* trace-record allocations via the
// spf::trace_hooks counter. A dedicated ctest entry replays this binary with
// SPF_FORCE_SCALAR_TAGS=1, and a TSan build pins it race-free
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir_fuzz_util.hpp"
#include "replay_oracle.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/ir/interp.hpp"
#include "spf/profile/invocations.hpp"
#include "spf/trace/trace_cursor.hpp"
#include "spf/workloads/em3d.hpp"

namespace spf {
namespace {

void expect_same_sa(const WorkloadSaResult& materialized,
                    const WorkloadSaResult& streaming) {
  EXPECT_EQ(materialized.merged.per_set, streaming.merged.per_set);
  EXPECT_EQ(materialized.merged.samples, streaming.merged.samples);
  EXPECT_EQ(materialized.merged.touched_sets, streaming.merged.touched_sets);
  EXPECT_EQ(materialized.merged.accesses, streaming.merged.accesses);
  EXPECT_EQ(materialized.merged.outer_iterations,
            streaming.merged.outer_iterations);
  EXPECT_EQ(materialized.cumulative_fallback, streaming.cumulative_fallback);
  EXPECT_EQ(materialized.invocations_analyzed, streaming.invocations_analyzed);
}

void expect_same_bound(const DistanceBound& oracle,
                       const DistanceBound& streaming) {
  EXPECT_EQ(oracle.original_min_sa, streaming.original_min_sa);
  EXPECT_EQ(oracle.with_helper_min_sa, streaming.with_helper_min_sa);
  EXPECT_EQ(oracle.upper_limit, streaming.upper_limit);
}

/// The paper's refinement applied to Set Affinity measured over the oracle's
/// materialized main+helper stream: with a saturated set, the bound becomes
/// max(1, min(with-helper SA, original SA / 2)); otherwise it is unchanged.
DistanceBound oracle_refine(const DistanceBound& base, const TraceBuffer& trace,
                            const std::vector<std::uint32_t>& invocation_starts,
                            const SpParams& params, const CacheGeometry& l2) {
  const WorkloadSaResult sa = analyze_workload_sa(
      test::combined_stream(trace, params), invocation_starts, l2);
  DistanceBound refined = base;
  if (sa.merged.any_saturated()) {
    refined.with_helper_min_sa = sa.merged.min_sa();
    refined.upper_limit = std::max<std::uint32_t>(
        1, std::min(sa.merged.min_sa(), base.original_min_sa / 2));
  }
  return refined;
}

/// Compares the full Set-Affinity analysis of the cursor-composed stream and
/// the refined bound against the oracle's materialized stream.
void compare_paths(const TraceBuffer& trace,
                   const std::vector<std::uint32_t>& invocation_starts,
                   const SpParams& params, const CacheGeometry& l2) {
  SCOPED_TRACE(params.to_string());

  const WorkloadSaResult sa_oracle = analyze_workload_sa(
      test::combined_stream(trace, params), invocation_starts, l2);
  MergeByIterCursor cursor(
      TraceViewCursor(trace),
      HelperViewCursor(trace, params, {}, /*re_anchor=*/true));
  const WorkloadSaResult sa_streaming =
      analyze_workload_sa(cursor, invocation_starts, l2);
  expect_same_sa(sa_oracle, sa_streaming);

  // End to end through refine_with_helper. The base bound is arbitrary:
  // refinement must treat it exactly as the paper's rule does.
  DistanceBound base;
  base.original_min_sa = 64;
  base.upper_limit = 32;
  expect_same_bound(
      oracle_refine(base, trace, invocation_starts, params, l2),
      refine_with_helper(base, trace, invocation_starts, params, l2));
}

std::vector<SpParams> params_grid() {
  return {
      SpParams{.a_ski = 0, .a_pre = 1},   // conventional helper, RP = 1
      SpParams{.a_ski = 2, .a_pre = 3},
      SpParams{.a_ski = 7, .a_pre = 1},
      SpParams{.a_ski = 1000000, .a_pre = 1000000},  // round >> trace length
      SpParams::from_distance_rp(8, 0.5),
  };
}

class TraceStreamDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceStreamDifferentialTest, RandomIrTraceAgrees) {
  ir::VirtualMemory vm;
  const ir::Program program = ir::random_program(GetParam(), vm);
  const ir::InterpResult interp = ir::interpret(program, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const CacheGeometry l2(16 * 1024, 4, 64);
  for (const SpParams& params : params_grid()) {
    compare_paths(interp.trace, {0}, params, l2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceStreamDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(TraceStreamEm3dTest, MultiInvocationWorkloadAgrees) {
  Em3dConfig cfg;
  cfg.nodes = 2000;
  cfg.arity = 8;
  cfg.passes = 2;  // multiple hot-function invocations: SA split + re-base
  const Em3dWorkload workload(cfg);
  const TraceBuffer trace = workload.emit_trace();
  const std::vector<std::uint32_t> starts = workload.invocation_starts();

  const CacheGeometry l2(64 << 10, 8, 64);
  const DistanceBound base = estimate_distance_bound(trace, starts, l2);
  for (const SpParams& params : params_grid()) {
    compare_paths(trace, starts, params, l2);
    expect_same_bound(oracle_refine(base, trace, starts, params, l2),
                      refine_with_helper(base, trace, starts, params, l2));
  }
}

TEST(TraceStreamAllocationTest, StreamingRefineAllocatesNoTraceRecords) {
  Em3dConfig cfg;
  cfg.nodes = 1500;
  cfg.arity = 8;
  cfg.passes = 1;
  const Em3dWorkload workload(cfg);
  const TraceBuffer trace = workload.emit_trace();
  const std::vector<std::uint32_t> starts = workload.invocation_starts();

  const CacheGeometry l2(64 << 10, 8, 64);
  const DistanceBound base = estimate_distance_bound(trace, starts, l2);
  const SpParams params = SpParams::from_distance_rp(4, 0.5);

  // Positive control: the materializing oracle grows trace storage.
  const std::uint64_t before_ref = trace_hooks::record_allocations();
  const DistanceBound refined_ref =
      oracle_refine(base, trace, starts, params, l2);
  EXPECT_GT(trace_hooks::record_allocations(), before_ref);

  // The streaming refinement must not touch TraceRecord storage at all.
  const std::uint64_t before = trace_hooks::record_allocations();
  const DistanceBound refined =
      refine_with_helper(base, trace, starts, params, l2);
  EXPECT_EQ(trace_hooks::record_allocations(), before)
      << "cursor-based refinement allocated trace-record storage";
  expect_same_bound(refined_ref, refined);
}

}  // namespace
}  // namespace spf
