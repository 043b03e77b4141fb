// Property and differential coverage for the adaptive-distance subsystem.
//
// Three pillars:
//   * FeedbackDistanceController properties under randomized configs and
//     feedback streams — the distance never leaves [min, max], every step is
//     exactly the AIMD arithmetic (halve-with-floor / add-with-cap), and the
//     action tallies reconcile with the observed actions;
//   * a frozen controller (min = max = initial = d) replays exactly like the
//     static SP cell at d — run_sp_once — on em3d, em3d-late, mcf and mst at
//     every auto-ladder distance and at one d >= interval_iters: the pauses
//     and same-distance retunes of the continuous run change nothing;
//   * an adaptive run with real retunes is identical to the same control
//     loop driven through the record-at-a-time oracle (tests/replay_oracle.hpp)
//     at the same pause points, over seeded random IR traces, seeded
//     polluting synthetic traces and em3d; it does not depend on the helper
//     feed's window size (1, 7, 4096 records) and allocates no trace-record
//     storage;
//   * per-phase ceilings (AdaptiveConfig::phase_caps) from an
//     estimate_phase_bounds schedule on em3d-late re-clamp the walk exactly
//     as the same loop does, and every interval stays under its phase's cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir_fuzz_util.hpp"
#include "replay_oracle.hpp"
#include "sim_test_util.hpp"
#include "spf/core/adaptive.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/ir/interp.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"
#include "spf/workloads/synthetic.hpp"

namespace spf {
namespace {

using test::expect_identical;
using test::expect_same_summary;

// ---- controller properties ------------------------------------------------

/// Deterministic 64-bit LCG (MMIX constants) — keeps the property runs
/// reproducible without <random>'s platform-dependent distributions.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 17;
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

TEST(AdaptiveControllerProperty, BoundsArithmeticAndCounters) {
  Lcg rng(0xadaf71e5u);
  for (int config_round = 0; config_round < 50; ++config_round) {
    AdaptiveConfig cfg;
    cfg.min_distance = 1 + static_cast<std::uint32_t>(rng.below(16));
    cfg.max_distance =
        cfg.min_distance + static_cast<std::uint32_t>(rng.below(256));
    cfg.initial_distance = static_cast<std::uint32_t>(rng.below(512));
    cfg.increase_step = 1 + static_cast<std::uint32_t>(rng.below(16));
    ASSERT_EQ(cfg.validate(), "");

    FeedbackDistanceController c(cfg);
    // Clamped start.
    EXPECT_GE(c.distance(), cfg.min_distance);
    EXPECT_LE(c.distance(), cfg.max_distance);

    std::uint64_t increases = 0;
    std::uint64_t decreases = 0;
    for (int step = 0; step < 200; ++step) {
      IntervalFeedback fb;
      fb.l2_lookups = rng.below(4);  // 0 sometimes: the hold-on-quiet case
      fb.l2_lookups *= rng.below(5000);
      fb.partially_hits = rng.below(fb.l2_lookups + 1);
      fb.totally_misses = rng.below(fb.l2_lookups + 1);
      fb.pollution_events = rng.below(fb.l2_lookups / 4 + 1);

      const std::uint32_t before = c.distance();
      const AdaptiveAction action = c.observe(fb);
      const std::uint32_t after = c.distance();

      EXPECT_GE(after, cfg.min_distance);
      EXPECT_LE(after, cfg.max_distance);
      switch (action) {
        case AdaptiveAction::kDecrease:
          EXPECT_EQ(after, std::max(cfg.min_distance, before / 2));
          EXPECT_LT(after, before);  // kDecrease only fires above the floor
          ++decreases;
          break;
        case AdaptiveAction::kIncrease:
          EXPECT_EQ(after,
                    std::min(cfg.max_distance, before + cfg.increase_step));
          EXPECT_GT(after, before);  // kIncrease only fires below the cap
          ++increases;
          break;
        case AdaptiveAction::kHold:
          EXPECT_EQ(after, before);
          break;
      }
      if (fb.l2_lookups == 0) {
        EXPECT_EQ(action, AdaptiveAction::kHold);
      }
    }
    EXPECT_EQ(c.increases(), increases);
    EXPECT_EQ(c.decreases(), decreases);
  }
}

TEST(AdaptiveConfigTest, ValidateRejectsBadConfigs) {
  AdaptiveConfig cfg;
  EXPECT_EQ(cfg.validate(), "");
  cfg.min_distance = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg = AdaptiveConfig{};
  cfg.min_distance = 8;
  cfg.max_distance = 4;
  EXPECT_NE(cfg.validate(), "");
  cfg = AdaptiveConfig{};
  cfg.increase_step = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg = AdaptiveConfig{};
  cfg.interval_iters = 0;
  EXPECT_NE(cfg.validate(), "");
  cfg = AdaptiveConfig{};
  cfg.rp = 0.0;
  EXPECT_NE(cfg.validate(), "");
  cfg.rp = 1.5;
  EXPECT_NE(cfg.validate(), "");
}

TEST(AdaptiveRunResultTest, EmptyTrajectoryReportsInitialDistance) {
  AdaptiveRunResult r;
  r.initial_distance = 16;
  EXPECT_EQ(r.final_distance(), 16u);
  EXPECT_EQ(r.mean_distance(), 16.0);
  r.distance_trajectory = {16, 8, 4};
  EXPECT_EQ(r.final_distance(), 4u);
  EXPECT_NEAR(r.mean_distance(), (16.0 + 8.0 + 4.0) / 3.0, 1e-12);
}

// ---- frozen controller == static cell --------------------------------------

constexpr std::uint32_t kFrozenInterval = 100;

/// The pinned golden grid's workload sizes (tests/pinned_golden_spec.hpp) on
/// its 64 KiB L2, plus em3d-late: a reduced-arity prelude pass before the
/// full-arity one.
std::vector<orchestrate::WorkloadSpec> frozen_workloads() {
  Em3dConfig em3d;
  em3d.nodes = 2000;
  em3d.arity = 8;
  em3d.passes = 1;
  Em3dConfig late = em3d;
  late.passes = 2;
  late.prelude_arity = 2;
  McfConfig mcf;
  mcf.nodes = 1000;
  mcf.arcs = 6000;
  mcf.passes = 2;
  MstConfig mst;
  mst.vertices = 400;
  mst.degree = 8;
  mst.buckets = 32;
  return {orchestrate::em3d_spec(em3d),
          orchestrate::em3d_spec(late, "em3d-late"),
          orchestrate::mcf_spec(mcf), orchestrate::mst_spec(mst)};
}

class FrozenControllerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrozenControllerTest, EqualsStaticCellAtEveryLadderDistance) {
  const orchestrate::WorkloadSpec workload = frozen_workloads()[GetParam()];
  SCOPED_TRACE(workload.name);
  // The static cells of the auto ladder, provenance on: each one is
  // ExperimentContext::run_sp_once at the cell's distance.
  orchestrate::SweepSpec spec;
  spec.workloads = {workload};
  spec.geometries = {CacheGeometry(64 << 10, 8, 64)};
  spec.provenance = true;
  orchestrate::SweepOptions opts;
  opts.threads = 1;
  const orchestrate::SweepResult ladder = orchestrate::run_sweep(spec, opts);
  ASSERT_EQ(ladder.failed_count(), 0u);
  ASSERT_GE(ladder.cells.size(), 5u);

  const std::shared_ptr<const TraceSource> src = workload.make();
  SpExperimentConfig base;
  base.sim.l2 = spec.geometries.front();
  base.sim.provenance = true;
  ExperimentContext ctx;
  const auto frozen_run = [&](std::uint32_t d) {
    AdaptiveConfig frozen;
    frozen.min_distance = d;
    frozen.max_distance = d;
    frozen.initial_distance = d;
    frozen.interval_iters = kFrozenInterval;
    return ctx.run_adaptive(src->trace, base, frozen);
  };
  for (const orchestrate::CellResult& cell : ladder.cells) {
    const std::uint32_t d = cell.cell.distance;
    SCOPED_TRACE("d=" + std::to_string(d));
    const AdaptiveRunResult run = frozen_run(d);
    ASSERT_GE(run.intervals, 10u);
    expect_same_summary(run.aggregate, cell.cmp->sp);
  }

  // A distance longer than several intervals: the helper's first skip phase
  // spans interval boundaries, so pauses fall inside it.
  const std::uint32_t far = 3 * kFrozenInterval + 7;
  SpExperimentConfig cfg = base;
  cfg.params = SpParams::from_distance_rp(far, 0.5);
  const SpRunSummary static_far = ctx.run_sp_once(src->trace, cfg);
  SCOPED_TRACE("d=" + std::to_string(far));
  expect_same_summary(frozen_run(far).aggregate, static_far);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FrozenControllerTest,
                         ::testing::Range<std::size_t>(0, 4));

// ---- real retunes: batched == oracle, any window --------------------------

/// Small shared L2 so short traces still generate misses, evictions and
/// MSHR pressure (mirrors replay_differential_test).
SimConfig small_machine() {
  SimConfig config;
  config.l1 = CacheGeometry(4 * 1024, 4, 64);
  config.l2 = CacheGeometry(64 * 1024, 8, 64);
  config.l2_mshrs = 8;
  config.provenance = true;
  return config;
}

/// Controllers that move on almost every interval. The falling walk starts
/// at max / 4 and halves on any pollution; the rising one starts at 1,
/// ignores pollution and adds 3 on any late fill. Between them the helper's
/// round both shrinks and grows mid-run.
AdaptiveConfig walking(std::uint32_t interval_iters, std::uint32_t max,
                       bool rising) {
  AdaptiveConfig acfg;
  acfg.min_distance = 1;
  acfg.max_distance = max;
  acfg.initial_distance = rising ? 1 : max / 4;
  acfg.increase_step = 3;
  acfg.pollution_high_per_mille = rising ? 1e9 : 0.0;
  acfg.pollution_low_per_mille = rising ? 1e9 : 0.0;
  acfg.late_share = 0.0;
  acfg.interval_iters = interval_iters;
  return acfg;
}

struct ContinuousRun {
  AdaptiveRunResult adaptive;
  SimResult sim;
};

/// Marks a re-clamp to max_distance before the first cap's begin_iter.
constexpr std::uint32_t kNoPhase = 0xffffffffu;

/// The continuous adaptive run restated as a plain control loop over the
/// simulator's pause seam: `step` is CmpSimulator::run_until (batched) or
/// ReplayOracle::run_until (record at a time). Mirrors run_adaptive: pause
/// where the main core reaches the next interval_iters boundary, feed the
/// controller the interval's counter deltas, re-clamp the ceiling when the
/// next interval's first iteration enters another phase, retune the helper
/// feed.
template <std::size_t WindowN, typename Step>
ContinuousRun run_continuous(const TraceBuffer& trace, const SimConfig& config,
                             const AdaptiveConfig& adaptive, Step step) {
  ContinuousRun out;
  FeedbackDistanceController controller(adaptive);
  out.adaptive.initial_distance = controller.distance();
  const std::uint32_t interval = adaptive.interval_iters;
  std::uint32_t first = trace[0].outer_iter / interval * interval;
  // The active phase is the last cap that begins at or before `first`;
  // unresolved before the first interval, so that one always records.
  std::optional<std::uint32_t> active_phase;
  const auto reclamp = [&] {
    if (adaptive.phase_caps.empty()) return;
    std::uint32_t phase = kNoPhase;
    for (std::uint32_t c = 0; c < adaptive.phase_caps.size() &&
                              adaptive.phase_caps[c].begin_iter <= first;
         ++c) {
      phase = c;
    }
    if (phase == active_phase) return;
    active_phase = phase;
    const std::uint32_t after = controller.reclamp_max(
        phase == kNoPhase ? adaptive.max_distance
                          : adaptive.phase_caps[phase].upper_limit);
    out.adaptive.reclamps.push_back(
        PhaseReclampEvent{.interval = out.adaptive.intervals,
                          .phase = phase,
                          .cap = controller.max_distance(),
                          .distance_after = after});
  };
  reclamp();
  const SpParams start =
      SpParams::from_distance_rp(controller.distance(), adaptive.rp);
  CursorWindowSource<HelperViewCursor, WindowN> feed(
      HelperViewCursor::round_labelled(trace, start));
  CmpSimulator sim(config);
  sim.start(config,
            {CoreStream{.trace = &trace, .origin = FillOrigin::kDemand},
             CoreStream{.source = &feed, .origin = FillOrigin::kHelper,
                        .sync = RoundSync{.leader = 0, .round_iters = 1}}});
  SpRunSummary before;
  for (;;) {
    out.adaptive.distance_trajectory.push_back(controller.distance());
    ++out.adaptive.intervals;
    const std::optional<std::uint32_t> next =
        step(sim, std::uint64_t{first} + interval);
    if (!next) out.sim = sim.finish();
    const SpRunSummary now =
        SpRunSummary::from(next ? sim.progress() : out.sim);
    controller.observe(IntervalFeedback{
        .l2_lookups = now.l2_lookups - before.l2_lookups,
        .partially_hits = now.partially_hits - before.partially_hits,
        .totally_misses = now.totally_misses - before.totally_misses,
        .pollution_events = now.pollution.total_pollution() -
                            before.pollution.total_pollution()});
    if (!next) break;
    before = now;
    first = *next / interval * interval;
    reclamp();
    feed.cursor().retune(
        SpParams::from_distance_rp(controller.distance(), adaptive.rp));
  }
  out.adaptive.aggregate = SpRunSummary::from(out.sim);
  out.adaptive.increases = controller.increases();
  out.adaptive.decreases = controller.decreases();
  return out;
}

std::optional<std::uint32_t> batched_step(CmpSimulator& sim,
                                          std::uint64_t pause) {
  return sim.run_until(pause);
}

std::optional<std::uint32_t> oracle_step(CmpSimulator& sim,
                                         std::uint64_t pause) {
  return test::ReplayOracle::run_until(sim, pause);
}

/// Pins one adaptive configuration: run_adaptive == the batched control
/// loop == the oracle loop, at helper windows of 1, 7 and 4096 records, with
/// zero trace-record allocations on the production path. Returns the
/// oracle's run.
AdaptiveRunResult pin_continuous_run(const TraceBuffer& trace,
                                     const SimConfig& config,
                                     const AdaptiveConfig& adaptive) {
  const ContinuousRun oracle =
      run_continuous<4096>(trace, config, adaptive, oracle_step);
  {
    SCOPED_TRACE("batched, window 4096");
    const ContinuousRun batched =
        run_continuous<4096>(trace, config, adaptive, batched_step);
    test::expect_same_result(batched.sim, oracle.sim);
    expect_identical(batched.adaptive, oracle.adaptive);
  }
  {
    SCOPED_TRACE("batched, window 7");
    const ContinuousRun batched =
        run_continuous<7>(trace, config, adaptive, batched_step);
    test::expect_same_result(batched.sim, oracle.sim);
    expect_identical(batched.adaptive, oracle.adaptive);
  }
  {
    SCOPED_TRACE("batched, window 1");
    const ContinuousRun batched =
        run_continuous<1>(trace, config, adaptive, batched_step);
    test::expect_same_result(batched.sim, oracle.sim);
    expect_identical(batched.adaptive, oracle.adaptive);
  }
  {
    SCOPED_TRACE("ExperimentContext::run_adaptive");
    SpExperimentConfig base;
    base.sim = config;
    ExperimentContext ctx;
    (void)ctx.run_adaptive(trace, base, adaptive);  // size the context
    const std::uint64_t allocs_before = trace_hooks::record_allocations();
    const AdaptiveRunResult production =
        ctx.run_adaptive(trace, base, adaptive);
    EXPECT_EQ(trace_hooks::record_allocations() - allocs_before, 0u)
        << "the continuous run must not grow trace-record storage";
    expect_identical(production, oracle.adaptive);
  }
  return oracle.adaptive;
}

/// Distance changes along a run's trajectory.
std::uint64_t moves(const AdaptiveRunResult& run) {
  std::uint64_t n = 0;
  const std::vector<std::uint32_t>& walk = run.distance_trajectory;
  for (std::size_t i = 1; i < walk.size(); ++i) n += walk[i] != walk[i - 1];
  return n;
}

class AdaptiveOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptiveOracleTest, RandomTraceRetunesMatchOracle) {
  ir::VirtualMemory vm;
  const ir::InterpResult interp =
      ir::interpret(ir::random_program(GetParam(), vm), vm);
  if (interp.trace.size() == 0) GTEST_SKIP() << "degenerate program";
  // Few random programs pollute, so mostly the rising walk moves here; the
  // synthetic and em3d cases below exercise both directions.
  for (const bool rising : {false, true}) {
    SCOPED_TRACE(rising ? "rising walk" : "falling walk");
    (void)pin_continuous_run(interp.trace, small_machine(),
                             walking(2, 32, rising));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveOracleTest,
                         ::testing::Range<std::uint64_t>(1, 17));

class AdaptiveOracleSyntheticTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdaptiveOracleSyntheticTest, PollutingTraceRetunesMatchOracle) {
  // Random reads over a footprint four times the small machine's L2: the
  // helper's lead evicts live lines, so pollution drives the falling walk.
  SyntheticConfig wcfg;
  wcfg.iterations = 3000;
  wcfg.random_reads = 8;
  wcfg.random_footprint_lines = 4096;
  wcfg.seed = GetParam();
  const TraceBuffer trace = SyntheticWorkload(wcfg).emit_trace();
  for (const bool rising : {false, true}) {
    SCOPED_TRACE(rising ? "rising walk" : "falling walk");
    const AdaptiveRunResult run =
        pin_continuous_run(trace, small_machine(), walking(100, 64, rising));
    EXPECT_GE(moves(run), 1u) << "the walk must actually retune the helper";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdaptiveOracleSyntheticTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(AdaptiveOracleEm3dTest, RetunesMatchOracle) {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();
  for (const bool rising : {false, true}) {
    SCOPED_TRACE(rising ? "rising walk" : "falling walk");
    const AdaptiveRunResult run =
        pin_continuous_run(trace, small_machine(), walking(150, 64, rising));
    EXPECT_GE(moves(run), 3u) << "the walk must actually retune the helper";
  }
}

// ---- per-phase ceilings ----------------------------------------------------

/// em3d-late (quiet reduced-arity prelude, pressured full-arity pass last)
/// sized for the small machine.
std::shared_ptr<const TraceSource> em3d_late_source() {
  Em3dConfig wl;
  wl.nodes = 3000;
  wl.arity = 16;
  wl.passes = 2;
  wl.prelude_arity = 2;
  return orchestrate::em3d_spec(wl, "em3d-late").make();
}

/// The walk's ceilings from estimate_phase_bounds: one cap per phase.
std::vector<PhaseDistanceCap> phase_schedule(const TraceSource& src,
                                             const CacheGeometry& l2) {
  const PhasedDistanceBound bound =
      estimate_phase_bounds(src.trace, src.invocation_starts, l2);
  std::vector<PhaseDistanceCap> caps;
  for (const PhaseDistanceBound& ph : bound.phases) {
    caps.push_back(PhaseDistanceCap{ph.begin_iter, ph.upper_limit});
  }
  return caps;
}

/// The re-clamp contracts: the first event is at interval 0, events come in
/// strictly increasing interval order, each event's cap is its phase's bound
/// clamped into [min_distance, max_distance], and no interval's distance is
/// above the cap of the latest event at or before it.
void expect_reclamp_invariants(const AdaptiveRunResult& run,
                               const AdaptiveConfig& acfg) {
  const std::vector<PhaseReclampEvent>& events = run.reclamps;
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().interval, 0u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const PhaseReclampEvent& ev = events[i];
    SCOPED_TRACE("reclamp " + std::to_string(i));
    if (i > 0) {
      EXPECT_GT(ev.interval, events[i - 1].interval);
    }
    ASSERT_TRUE(ev.phase == kNoPhase || ev.phase < acfg.phase_caps.size());
    const std::uint32_t scheduled = ev.phase == kNoPhase
                                        ? acfg.max_distance
                                        : acfg.phase_caps[ev.phase].upper_limit;
    EXPECT_EQ(ev.cap,
              std::clamp(scheduled, acfg.min_distance, acfg.max_distance));
    EXPECT_LE(ev.distance_after, ev.cap);
    const std::uint64_t end = i + 1 < events.size()
                                  ? events[i + 1].interval
                                  : run.distance_trajectory.size();
    for (std::uint64_t j = ev.interval; j < end; ++j) {
      EXPECT_LE(run.distance_trajectory[j], ev.cap) << "interval " << j;
    }
  }
}

TEST(AdaptivePhaseCapsTest, ScheduleRetunesMatchOracleAndHoldCaps) {
  const std::shared_ptr<const TraceSource> src = em3d_late_source();
  const SimConfig machine = small_machine();
  const std::vector<PhaseDistanceCap> caps = phase_schedule(*src, machine.l2);
  ASSERT_GE(caps.size(), 2u) << "em3d-late must show more than one phase";
  for (const bool rising : {false, true}) {
    SCOPED_TRACE(rising ? "rising walk" : "falling walk");
    AdaptiveConfig acfg = walking(150, 256, rising);
    acfg.phase_caps = caps;
    const AdaptiveRunResult run = pin_continuous_run(src->trace, machine, acfg);
    expect_reclamp_invariants(run, acfg);
    EXPECT_GE(run.reclamps.size(), 2u) << "the walk must change phase";
    EXPECT_GE(moves(run), 3u) << "the walk must actually retune the helper";
  }
}

TEST(AdaptivePhaseCapsTest, SingleCapEqualsPolicyCeiling) {
  const std::shared_ptr<const TraceSource> src = em3d_late_source();
  SpExperimentConfig base;
  base.sim = small_machine();
  ExperimentContext ctx;
  const AdaptiveConfig free = walking(150, 256, true);
  const AdaptiveRunResult unclamped = ctx.run_adaptive(src->trace, base, free);
  const std::uint32_t ceiling = 16;
  ASSERT_GT(*std::max_element(unclamped.distance_trajectory.begin(),
                              unclamped.distance_trajectory.end()),
            ceiling)
      << "the ceiling must bind";

  AdaptiveConfig capped = free;
  capped.max_distance = ceiling;
  AdaptiveConfig one_phase = free;
  one_phase.phase_caps = {PhaseDistanceCap{0, ceiling}};
  const AdaptiveRunResult by_max = ctx.run_adaptive(src->trace, base, capped);
  const AdaptiveRunResult by_phase =
      ctx.run_adaptive(src->trace, base, one_phase);
  EXPECT_EQ(by_phase.distance_trajectory, by_max.distance_trajectory);
  expect_same_summary(by_phase.aggregate, by_max.aggregate);
}

// ---- continuous-run contracts ----------------------------------------------

TraceBuffer polluting_trace() {
  SyntheticConfig wcfg;
  wcfg.iterations = 12000;
  wcfg.random_reads = 8;
  wcfg.random_footprint_lines = 1 << 13;
  return SyntheticWorkload(wcfg).emit_trace();
}

TEST(AdaptiveContinuousRun, WrapperMatchesContextMember) {
  const TraceBuffer trace = polluting_trace();
  SpExperimentConfig base;
  base.sim.l2 = CacheGeometry(256 * 1024, 16, 64);
  AdaptiveConfig acfg;
  acfg.interval_iters = 2000;

  ExperimentContext ctx;
  expect_identical(run_adaptive_experiment(trace, base, acfg),
                   ctx.run_adaptive(trace, base, acfg));
}

// ---- API contract ---------------------------------------------------------

TEST(AdaptiveApiContract, RejectsNonDefaultBaseParams) {
  const TraceBuffer trace = polluting_trace();
  SpExperimentConfig base;
  base.sim.l2 = CacheGeometry(256 * 1024, 16, 64);
  base.params = SpParams::from_distance_rp(16, 0.5);
  EXPECT_THROW(run_adaptive_experiment(trace, base, AdaptiveConfig{}),
               std::invalid_argument);
}

TEST(AdaptiveApiContract, RejectsInvalidConfig) {
  const TraceBuffer trace = polluting_trace();
  SpExperimentConfig base;
  base.sim.l2 = CacheGeometry(256 * 1024, 16, 64);
  AdaptiveConfig bad;
  bad.interval_iters = 0;
  EXPECT_THROW(run_adaptive_experiment(trace, base, bad),
               std::invalid_argument);
  bad = AdaptiveConfig{};
  bad.rp = 2.0;
  EXPECT_THROW(run_adaptive_experiment(trace, base, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace spf
