// Randomized robustness tests for the IR: generate structurally valid random
// programs and check interpreter invariants — verify() accepts them, loads/
// stores match trace records, execution is deterministic, and helper
// interpretation of a sliceable program never stores and stays a subset of
// iteration space. A second suite splices interpreted traces into
// phase-boundary mutations (abrupt working-set shifts) and holds the
// phase-incremental Set-Affinity analysis to its invariants on them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "ir_fuzz_util.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/ir/interp.hpp"
#include "spf/ir/ir.hpp"
#include "spf/ir/slice.hpp"
#include "spf/ir/vm.hpp"
#include "spf/profile/incremental_affinity.hpp"
#include "spf/profile/invocations.hpp"

namespace spf::ir {
namespace {

class IrFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IrFuzzTest, InterpreterInvariantsHold) {
  VirtualMemory vm;
  const Program p = random_program(GetParam(), vm);
  EXPECT_TRUE(verify(p).empty());

  VirtualMemory vm_a = vm;
  VirtualMemory vm_b = vm;
  const InterpResult a = interpret(p, vm_a);
  const InterpResult b = interpret(p, vm_b);

  // Determinism.
  EXPECT_EQ(a.store_checksum, b.store_checksum);
  ASSERT_EQ(a.trace.size(), b.trace.size());

  // Trace bookkeeping matches counters.
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  for (const TraceRecord& r : a.trace) {
    EXPECT_LT(r.outer_iter, p.outer_trip);
    (r.kind() == AccessKind::kWrite ? writes : reads) += 1;
  }
  EXPECT_EQ(reads, a.loads);
  EXPECT_EQ(writes, a.stores);

  // Slicing + helper interpretation invariants.
  const SliceMasks masks = build_helper_slice(p);
  EXPECT_LE(masks.spine_count(), masks.helper_count());
  const SpParams params{.a_ski = 2, .a_pre = 2};
  const InterpResult helper = interpret_helper(p, masks, params, vm);
  EXPECT_EQ(helper.stores, 0u);
  for (const TraceRecord& r : helper.trace) {
    EXPECT_NE(r.kind(), AccessKind::kWrite);
    EXPECT_LT(r.outer_iter, p.outer_trip);
  }
  // The helper issues every delinquent load of pre-executed iterations.
  std::uint64_t main_delinquent_pre = 0;
  for (const TraceRecord& r : a.trace) {
    if (r.is_delinquent() && r.outer_iter % params.round() >= params.a_ski) {
      ++main_delinquent_pre;
    }
  }
  std::uint64_t helper_delinquent = 0;
  for (const TraceRecord& r : helper.trace) {
    helper_delinquent += r.is_delinquent();
  }
  EXPECT_EQ(helper_delinquent, main_delinquent_pre);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 33));

// Splice an interpreted trace into an abrupt working-set shift: the original
// run, followed by a replay shifted past its iteration span whose per-
// iteration footprint is multiplied by re-emitting each record in `widen`
// disjoint address regions. Exactly the input shape phase detection exists
// for — and a stress for its windowing/EMA state machine.
TraceBuffer splice_phase_shift(const TraceBuffer& trace, std::uint32_t widen) {
  std::uint32_t iter_end = 0;
  for (const TraceRecord& r : trace) {
    iter_end = std::max(iter_end, r.outer_iter + 1);
  }
  TraceBuffer spliced;
  for (const TraceRecord& r : trace) spliced.mutable_records().push_back(r);
  for (const TraceRecord& r : trace) {
    for (std::uint32_t w = 0; w < widen; ++w) {
      TraceRecord s = r;
      s.outer_iter += iter_end;
      s.addr += Addr{w + 1} << 40;
      spliced.mutable_records().push_back(s);
    }
  }
  return spliced;
}

TEST_P(IrFuzzTest, PhaseBoundaryMutationsKeepBoundsSane) {
  VirtualMemory vm;
  const Program p = random_program(GetParam(), vm);
  const InterpResult interp = interpret(p, vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";

  const CacheGeometry l2(16 * 1024, 4, 64);
  // The seed varies how hard the working set widens at the splice point.
  const TraceBuffer spliced =
      splice_phase_shift(interp.trace, 2 + GetParam() % 3);

  PhaseAffinityConfig cfg;
  cfg.window_iters = 1 + static_cast<std::uint32_t>(GetParam() % 64);
  const PhasedSaResult sa =
      analyze_workload_sa_phased(spliced, {0}, l2, cfg);

  // The phases always form a contiguous partition starting at iteration 0.
  ASSERT_FALSE(sa.phases.empty());
  EXPECT_EQ(sa.phases.front().begin_iter, 0u);
  for (std::size_t i = 0; i + 1 < sa.phases.size(); ++i) {
    EXPECT_EQ(sa.phases[i].end_iter, sa.phases[i + 1].begin_iter);
  }

  // The whole-run slice is the legacy analysis, bit for bit.
  const WorkloadSaResult legacy = analyze_workload_sa(spliced, {0}, l2);
  EXPECT_EQ(sa.whole.merged.samples, legacy.merged.samples);
  EXPECT_EQ(sa.whole.merged.per_set, legacy.merged.per_set);
  EXPECT_EQ(sa.whole.cumulative_fallback, legacy.cumulative_fallback);

  if (!sa.whole.merged.any_saturated()) return;  // no bound to derive

  const PhasedDistanceBound bound = estimate_phase_bounds(spliced, {0}, l2, cfg);
  EXPECT_EQ(bound.whole.upper_limit,
            estimate_distance_bound(spliced, {0}, l2).upper_limit);
  // Phases partition the samples, so the tightest per-phase cap is the
  // whole-run bound, whatever the splice did to the sample stream.
  std::uint32_t min_cap = UINT32_MAX;
  for (const PhaseDistanceBound& ph : bound.phases) {
    EXPECT_GE(ph.upper_limit, 1u);
    min_cap = std::min(min_cap, ph.upper_limit);
  }
  EXPECT_EQ(min_cap, bound.whole.upper_limit);
}

}  // namespace
}  // namespace spf::ir
