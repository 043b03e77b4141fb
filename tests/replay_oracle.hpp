// Test-only reference implementations of the SP replay pipeline.
//
// Production code carries one path per concept: the helper stream is the
// lazy HelperViewCursor, the main+helper merge is MergeByIterCursor, and the
// simulator replays through one batched scheduler loop. This header holds
// the naive counterparts the differential suites pin them against:
//
//   * helper_trace — the skip/pre-execute transform as one materializing
//     loop over the main trace;
//   * merge_by_iter — the two-way merge by outer_iter, a-side first on ties;
//   * combined_stream — the refinement's main + re-anchored helper stream,
//     built from the two above;
//   * ReplayOracle::run — the record-at-a-time scheduler: one full round
//     (pick + gate checks) per record, sharing CmpSimulator's per-record
//     access code but none of the batched loop's limits or leader mask;
//     ReplayOracle::run_until is the same scheduler stopping at a pause
//     point, the counterpart of CmpSimulator::run_until. After every record
//     it checks the L2 install invariant: no line with an outstanding MSHR
//     entry is resident in the L2 (the premise of drain_l2's fill_absent);
//   * run_sp_once — an SP cell on the materialized helper through the
//     record-at-a-time scheduler, summarized like ExperimentContext does.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/core/experiment.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/trace/trace.hpp"

namespace spf::test {

/// The helper thread's access stream, materialized in one pass: reads of
/// pre-execute iterations are kept (delinquent ones optionally as prefetch
/// instructions), skip iterations keep only spine reads, writes are dropped.
inline TraceBuffer helper_trace(const TraceBuffer& main_trace,
                                const SpParams& params,
                                const HelperGenOptions& options = {}) {
  SPF_ASSERT(params.a_pre > 0, "helper must pre-execute at least one iteration");
  TraceBuffer helper;
  for (const TraceRecord& r : main_trace) {
    if (r.kind() == AccessKind::kWrite) continue;
    const bool pre_execute = r.outer_iter % params.round() >= params.a_ski;
    if (!pre_execute && !r.is_spine()) continue;
    const AccessKind kind =
        pre_execute && r.is_delinquent() && options.use_prefetch_instructions
            ? AccessKind::kPrefetch
            : AccessKind::kRead;
    helper.emit(r.addr, r.outer_iter, kind, r.site, r.flags());
  }
  return helper;
}

/// Merges two traces by outer_iter: the head of `a` is taken iff `b` is
/// exhausted or a.outer_iter <= b.outer_iter.
inline TraceBuffer merge_by_iter(const TraceBuffer& a, const TraceBuffer& b) {
  TraceBuffer merged;
  merged.reserve(a.size() + b.size());
  std::vector<TraceRecord>& out = merged.mutable_records();
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() || ib < b.size()) {
    const bool take_a =
        ib == b.size() || (ia < a.size() && a[ia].outer_iter <= b[ib].outer_iter);
    out.push_back(take_a ? a[ia++] : b[ib++]);
  }
  return merged;
}

/// The stream Set Affinity with Helper Thread is measured over: the main
/// trace merged with its helper, whose records are re-anchored to the main
/// iteration they hit the shared cache at (outer_iter - A_SKI, floored at 0).
inline TraceBuffer combined_stream(const TraceBuffer& main_trace,
                                   const SpParams& params) {
  TraceBuffer helper = helper_trace(main_trace, params);
  for (TraceRecord& r : helper.mutable_records()) {
    r.outer_iter = r.outer_iter >= params.a_ski ? r.outer_iter - params.a_ski : 0;
  }
  return merge_by_iter(main_trace, helper);
}

struct ReplayOracle {
  /// Replays `streams` one record per scheduler round: every round visits
  /// all cores, releases gated helpers whose leader entered their round, and
  /// advances the core with the smallest next-access time (ties to the lower
  /// id) by exactly one record. step_batch with limit_lo = 0 ends every
  /// batch after its first record, so it runs the per-record access code
  /// only.
  static SimResult run(const SimConfig& config,
                       const std::vector<CoreStream>& streams) {
    CmpSimulator sim(config);
    sim.reset(streams);
    (void)run_until(sim, CmpSimulator::kNoPause);
    return sim.finish();
  }

  /// Continues a run begun with CmpSimulator::start one record per round
  /// until, at the top of a round, core 0's pending record has reached outer
  /// iteration `pause_iter` (returns that record's outer_iter) or every
  /// stream is exhausted (returns nullopt). Close the run with
  /// CmpSimulator::finish.
  static std::optional<std::uint32_t> run_until(CmpSimulator& sim,
                                                std::uint64_t pause_iter) {
    for (;;) {
      const CmpSimulator::CoreState& main = sim.cores_[0];
      if (!CmpSimulator::feed_done(main) &&
          CmpSimulator::feed_pending(main).outer_iter >= pause_iter) {
        return CmpSimulator::feed_pending(main).outer_iter;
      }
      CoreId pick = std::numeric_limits<CoreId>::max();
      Cycle best = std::numeric_limits<Cycle>::max();
      bool any_remaining = false;
      for (CoreId i = 0; i < sim.active_; ++i) {
        CmpSimulator::CoreState& core = sim.cores_[i];
        if (CmpSimulator::feed_done(core)) continue;
        any_remaining = true;
        if (sim.gated(core)) {
          core.was_gated = true;
          continue;
        }
        if (core.was_gated) {
          core.clock = std::max(core.clock, sim.cores_[core.sync->leader].clock);
          core.was_gated = false;
          core.next_time =
              core.clock + CmpSimulator::feed_pending(core).compute_gap;
        }
        if (core.next_time < best) {
          best = core.next_time;
          pick = i;
        }
      }
      if (!any_remaining) return std::nullopt;
      SPF_ASSERT(pick != std::numeric_limits<CoreId>::max(),
                 "all remaining cores gated: sync cycle");
      sim.step_batch(pick, /*limit_lo=*/0, /*limit_hi=*/0,
                     /*leader_sensitive=*/false);
      check_install_invariant(sim);
    }
  }

  /// Aborts when a line with an outstanding MSHR entry is resident in the
  /// L2: drain_l2 installs every fill with Cache::fill_absent, which relies
  /// on that never happening.
  static void check_install_invariant(const CmpSimulator& sim) {
    for (const LineAddr line : sim.mshr_->lines()) {
      SPF_ASSERT(!sim.l2_->contains(line),
                 "outstanding MSHR line resident in the L2");
    }
  }
};

/// One SP cell (main trace on core 0, its materialized helper round-gated on
/// core 1) through the record-at-a-time scheduler.
inline SpRunSummary run_sp_once(const TraceBuffer& main_trace,
                                const SpExperimentConfig& config) {
  const TraceBuffer helper =
      helper_trace(main_trace, config.params, config.helper);
  return SpRunSummary::from(ReplayOracle::run(
      config.sim,
      {CoreStream{.trace = &main_trace, .origin = FillOrigin::kDemand,
                  .sync = std::nullopt},
       CoreStream{.trace = &helper, .origin = FillOrigin::kHelper,
                  .sync = RoundSync{.leader = 0,
                                    .round_iters = config.params.round()}}}));
}

}  // namespace spf::test
