// Differential harness for the phase-incremental Set-Affinity analyzer: the
// streaming implementation (IncrementalAffinityAnalyzer fed one record at a
// time through a TraceCursor, two passes at most, zero trace-record
// allocations) must produce bit-identical results to a naive materializing
// reference built inline here — split the record vector into per-invocation
// segments, brute-force the paper's Figure-3 per-set scan on each, merge,
// then run the windowing/EMA/hysteresis phase rule over the collected
// (iteration, SA) sample list as plain post-hoc code.
//
// The refinement entry point (refine_phase_bounds) is also pinned: its lazy
// cursor composition over the merged main+helper view against the paper's
// per-phase rule applied to the phased analysis of the oracle's materialized
// stream (tests/replay_oracle.hpp), plus the zero-allocation contract via
// spf::trace_hooks. A dedicated ctest entry replays this binary with
// SPF_FORCE_SCALAR_TAGS=1, and a TSan build pins it race-free
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "replay_oracle.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/profile/incremental_affinity.hpp"
#include "spf/trace/trace_cursor.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/synthetic.hpp"

namespace spf {
namespace {

CacheGeometry test_l2() { return CacheGeometry(16 * 1024, 4, 64); }

// ---- naive materializing reference ----------------------------------------

struct NaiveSample {
  std::uint32_t cumulative_iter = 0;
  std::uint32_t sa = 0;
};

/// Brute-force Figure 3 over one record range with re-based iterations:
/// ordered std::map/std::set state (nothing shared with the analyzer's
/// unordered containers), SA recorded the first time a set's distinct-line
/// count reaches associativity.
SetAffinityResult naive_segment(const std::vector<TraceRecord>& recs,
                                std::size_t lo, std::size_t hi,
                                std::uint32_t base, const CacheGeometry& l2,
                                std::vector<NaiveSample>* samples_out) {
  SetAffinityResult out;
  std::map<std::uint64_t, std::set<std::uint64_t>> blocks;
  std::set<std::uint64_t> saturated;
  for (std::size_t i = lo; i < hi; ++i) {
    const TraceRecord& r = recs[i];
    const std::uint32_t iter = r.outer_iter - base;
    ++out.accesses;
    out.outer_iterations = std::max(out.outer_iterations, iter + 1);
    const std::uint64_t line = l2.line_of(r.addr);
    const std::uint64_t set = l2.set_of_line(line);
    if (saturated.count(set) != 0) {
      blocks[set];  // still a touched set
      continue;
    }
    if (!blocks[set].insert(line).second) continue;
    if (blocks[set].size() >= l2.ways()) {
      const std::uint32_t sa = iter + 1;
      out.samples.push_back(sa);
      out.per_set.emplace(set, sa);
      saturated.insert(set);
      if (samples_out != nullptr) {
        samples_out->push_back({r.outer_iter, sa});
      }
    }
  }
  out.touched_sets = blocks.size();
  return out;
}

/// The phase rule as plain post-hoc code over the sample list: group samples
/// into windows of `window_iters` cumulative iterations, estimate = window
/// minimum, EMA with re-seed on a boundary, |estimate - ema| > hysteresis*ema
/// opens a phase at the window's start.
std::vector<AffinityPhase> naive_phases(const std::vector<NaiveSample>& samples,
                                        std::uint32_t iter_end,
                                        const PhaseAffinityConfig& cfg) {
  struct Window {
    std::uint64_t idx = 0;
    std::uint32_t min_sa = 0;
    std::uint64_t count = 0;
  };
  std::vector<Window> windows;
  for (const NaiveSample& s : samples) {
    const std::uint64_t w = s.cumulative_iter / cfg.window_iters;
    if (!windows.empty() && w <= windows.back().idx) {
      windows.back().min_sa = std::min(windows.back().min_sa, s.sa);
      ++windows.back().count;
    } else {
      windows.push_back({w, s.sa, 1});
    }
  }

  std::vector<AffinityPhase> phases;
  AffinityPhase current;
  double ema = 0.0;
  bool ema_set = false;
  for (const Window& w : windows) {
    const double estimate = w.min_sa;
    const bool boundary =
        ema_set && cfg.detect_phases &&
        std::abs(estimate - ema) > cfg.hysteresis * ema;
    if (boundary) {
      current.end_iter =
          static_cast<std::uint32_t>(w.idx * cfg.window_iters);
      if (current.samples == 0) current.min_sa = 0;
      phases.push_back(current);
      current = AffinityPhase{};
      current.index = phases.back().index + 1;
      current.begin_iter = phases.back().end_iter;
      current.min_sa = w.min_sa;
      current.samples = w.count;
      ema = estimate;
      continue;
    }
    current.min_sa = current.samples == 0 ? w.min_sa
                                          : std::min(current.min_sa, w.min_sa);
    current.samples += w.count;
    if (!ema_set) {
      ema = estimate;
      ema_set = true;
    } else {
      ema += cfg.ema_alpha * (estimate - ema);
    }
  }
  current.end_iter = std::max(iter_end, current.begin_iter);
  if (current.samples == 0) current.min_sa = 0;
  phases.push_back(current);
  return phases;
}

/// The full naive pipeline: materialize, split on invocation starts,
/// brute-force each segment, merge (with the cumulative fallback when no
/// invocation saturated), then window the sample list.
PhasedSaResult naive_reference(const TraceBuffer& trace,
                               const std::vector<std::uint32_t>& starts,
                               const CacheGeometry& l2,
                               const PhaseAffinityConfig& cfg) {
  const std::vector<TraceRecord> recs(trace.begin(), trace.end());
  std::uint32_t iter_end = 0;
  for (const TraceRecord& r : recs) {
    iter_end = std::max(iter_end, r.outer_iter + 1);
  }

  // Segment boundaries by record index, exactly the analyzer's while-loop:
  // a new invocation opens when a record reaches the next start (empty
  // invocations between consecutive starts produce empty segments).
  std::vector<NaiveSample> samples;
  PhasedSaResult out;
  std::vector<SetAffinityResult> per_invocation;
  std::size_t lo = 0;
  std::size_t inv = 0;
  for (std::size_t i = 0; i <= recs.size(); ++i) {
    const bool at_end = i == recs.size();
    while (inv + 1 < starts.size() &&
           (at_end ? false : recs[i].outer_iter >= starts[inv + 1])) {
      per_invocation.push_back(
          naive_segment(recs, lo, i, starts[inv], l2, &samples));
      lo = i;
      ++inv;
    }
    if (at_end) {
      per_invocation.push_back(
          naive_segment(recs, lo, i, starts[inv], l2, &samples));
    }
  }
  for (const SetAffinityResult& r : per_invocation) {
    out.whole.merged.samples.insert(out.whole.merged.samples.end(),
                                    r.samples.begin(), r.samples.end());
    out.whole.merged.accesses += r.accesses;
    out.whole.merged.touched_sets =
        std::max(out.whole.merged.touched_sets, r.touched_sets);
    out.whole.merged.outer_iterations += r.outer_iterations;
    for (const auto& [set, sa] : r.per_set) {
      auto [it, inserted] = out.whole.merged.per_set.emplace(set, sa);
      if (!inserted) it->second = std::min(it->second, sa);
    }
  }
  out.whole.invocations_analyzed =
      static_cast<std::uint32_t>(per_invocation.size());

  if (out.whole.merged.samples.empty()) {
    samples.clear();
    out.whole.merged =
        naive_segment(recs, 0, recs.size(), 0, l2, &samples);
    out.whole.cumulative_fallback = true;
  }
  out.phases = naive_phases(samples, iter_end, cfg);
  return out;
}

void expect_identical(const PhasedSaResult& got, const PhasedSaResult& want) {
  EXPECT_EQ(got.whole.merged.per_set, want.whole.merged.per_set);
  EXPECT_EQ(got.whole.merged.samples, want.whole.merged.samples);
  EXPECT_EQ(got.whole.merged.touched_sets, want.whole.merged.touched_sets);
  EXPECT_EQ(got.whole.merged.accesses, want.whole.merged.accesses);
  EXPECT_EQ(got.whole.merged.outer_iterations,
            want.whole.merged.outer_iterations);
  EXPECT_EQ(got.whole.cumulative_fallback, want.whole.cumulative_fallback);
  EXPECT_EQ(got.whole.invocations_analyzed, want.whole.invocations_analyzed);
  ASSERT_EQ(got.phases.size(), want.phases.size());
  for (std::size_t i = 0; i < got.phases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.phases[i].index, want.phases[i].index);
    EXPECT_EQ(got.phases[i].begin_iter, want.phases[i].begin_iter);
    EXPECT_EQ(got.phases[i].end_iter, want.phases[i].end_iter);
    EXPECT_EQ(got.phases[i].min_sa, want.phases[i].min_sa);
    EXPECT_EQ(got.phases[i].samples, want.phases[i].samples);
  }
}

// ---- fixtures -------------------------------------------------------------

TraceBuffer shifting_trace() {
  SyntheticConfig a;
  a.iterations = 1500;
  a.random_reads = 2;
  a.random_footprint_lines = 1 << 8;
  SyntheticConfig b;
  b.iterations = 1500;
  b.random_reads = 12;
  b.random_footprint_lines = 1 << 13;
  // Splice two synthetic regimes into one stream: the second half's records
  // are shifted past the first half's iteration span and into a disjoint
  // address region — an abrupt working-set shift mid-run.
  TraceBuffer trace = SyntheticWorkload(a).emit_trace();
  const TraceBuffer tail = SyntheticWorkload(b).emit_trace();
  for (const TraceRecord& r : tail) {
    TraceRecord shifted = r;
    shifted.outer_iter += a.iterations;
    shifted.addr += Addr{1} << 40;
    trace.mutable_records().push_back(shifted);
  }
  return trace;
}

// ---- differentials --------------------------------------------------------

TEST(PhaseAffinityDifferential, StreamingMatchesNaiveReference) {
  const TraceBuffer trace = shifting_trace();
  for (const std::uint32_t window : {16u, 64u, 500u}) {
    SCOPED_TRACE(window);
    PhaseAffinityConfig cfg;
    cfg.window_iters = window;
    expect_identical(analyze_workload_sa_phased(trace, {0}, test_l2(), cfg),
                     naive_reference(trace, {0}, test_l2(), cfg));
  }
}

TEST(PhaseAffinityDifferential, MultiInvocationMatchesNaiveReference) {
  Em3dConfig cfg;
  cfg.nodes = 2000;
  cfg.arity = 8;
  cfg.passes = 3;
  const Em3dWorkload workload(cfg);
  const TraceBuffer trace = workload.emit_trace();
  const std::vector<std::uint32_t> starts = workload.invocation_starts();
  for (const bool detect : {true, false}) {
    SCOPED_TRACE(detect);
    PhaseAffinityConfig pcfg;
    pcfg.window_iters = 32;
    pcfg.detect_phases = detect;
    expect_identical(
        analyze_workload_sa_phased(trace, starts, test_l2(), pcfg),
        naive_reference(trace, starts, test_l2(), pcfg));
  }
}

TEST(PhaseAffinityDifferential, CumulativeFallbackMatchesNaiveReference) {
  // Many short invocations, none long enough to saturate a 4-way set on its
  // own: the analyzer must re-stream cumulatively, and the phases must
  // describe the cumulative analysis.
  const CacheGeometry l2 = test_l2();
  TraceBuffer trace;
  std::vector<std::uint32_t> starts;
  for (std::uint32_t iter = 0; iter < 600; ++iter) {
    starts.push_back(iter);  // every iteration its own invocation
    TraceRecord r;
    r.addr = static_cast<Addr>(iter) * l2.line_bytes() * l2.num_sets();
    r.outer_iter = iter;
    trace.mutable_records().push_back(r);
  }
  PhaseAffinityConfig cfg;
  cfg.window_iters = 64;
  const PhasedSaResult streaming =
      analyze_workload_sa_phased(trace, starts, l2, cfg);
  EXPECT_TRUE(streaming.whole.cumulative_fallback);
  expect_identical(streaming, naive_reference(trace, starts, l2, cfg));
}

/// The paper's refinement applied phase by phase to the naive phased
/// analysis of the oracle's materialized main+helper stream: whole-run cap
/// max(1, min(with-helper SA, original SA / 2)) when a set saturated, each
/// sampled phase max(1, min(phase SA, original SA / 2)), sample-less phases
/// inherit the whole-run cap.
PhasedDistanceBound oracle_refine(const PhasedDistanceBound& base,
                                  const TraceBuffer& trace,
                                  const std::vector<std::uint32_t>& starts,
                                  const SpParams& params) {
  const PhasedSaResult sa = naive_reference(
      test::combined_stream(trace, params), starts, test_l2(), {});
  const std::uint32_t original_half =
      std::max<std::uint32_t>(1, base.whole.original_min_sa / 2);
  PhasedDistanceBound out;
  out.whole = base.whole;
  if (sa.whole.merged.any_saturated()) {
    out.whole.with_helper_min_sa = sa.whole.merged.min_sa();
    out.whole.upper_limit = std::max<std::uint32_t>(
        1, std::min(sa.whole.merged.min_sa(), base.whole.original_min_sa / 2));
  }
  for (const AffinityPhase& p : sa.phases) {
    out.phases.push_back(PhaseDistanceBound{
        .begin_iter = p.begin_iter,
        .end_iter = p.end_iter,
        .min_sa = p.min_sa,
        .upper_limit = p.samples != 0
                           ? std::max<std::uint32_t>(
                                 1, std::min(p.min_sa, original_half))
                           : out.whole.upper_limit});
  }
  return out;
}

TEST(PhaseAffinityDifferential, RefineStreamingMatchesMaterializing) {
  const TraceBuffer trace = shifting_trace();
  const std::vector<std::uint32_t> starts = {0};
  const PhasedDistanceBound base =
      estimate_phase_bounds(trace, starts, test_l2());
  for (const double rp : {0.5, 1.0}) {
    SCOPED_TRACE(rp);
    const SpParams params = SpParams::from_distance_rp(6, rp);
    const PhasedDistanceBound a = oracle_refine(base, trace, starts, params);
    const PhasedDistanceBound b =
        refine_phase_bounds(base, trace, starts, params, test_l2());
    EXPECT_EQ(a.whole.original_min_sa, b.whole.original_min_sa);
    EXPECT_EQ(a.whole.with_helper_min_sa, b.whole.with_helper_min_sa);
    EXPECT_EQ(a.whole.upper_limit, b.whole.upper_limit);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(a.phases[i].begin_iter, b.phases[i].begin_iter);
      EXPECT_EQ(a.phases[i].end_iter, b.phases[i].end_iter);
      EXPECT_EQ(a.phases[i].min_sa, b.phases[i].min_sa);
      EXPECT_EQ(a.phases[i].upper_limit, b.phases[i].upper_limit);
    }
  }
}

// ---- allocation contract --------------------------------------------------

TEST(PhaseAffinityAllocation, StreamingAnalysisAllocatesNoTraceRecords) {
  const TraceBuffer trace = shifting_trace();

  const std::uint64_t before = trace_hooks::record_allocations();
  TraceViewCursor cursor(trace);
  const PhasedSaResult sa =
      analyze_workload_sa_phased(cursor, {0}, test_l2(), {});
  EXPECT_EQ(trace_hooks::record_allocations() - before, 0u);
  EXPECT_GE(sa.phases.size(), 1u);
}

TEST(PhaseAffinityAllocation, StreamingRefineAllocatesNoTraceRecords) {
  const TraceBuffer trace = shifting_trace();
  const std::vector<std::uint32_t> starts = {0};
  const PhasedDistanceBound base =
      estimate_phase_bounds(trace, starts, test_l2());
  const SpParams params = SpParams::from_distance_rp(4, 0.5);

  // Positive control: the materializing oracle grows trace storage.
  const std::uint64_t before_ref = trace_hooks::record_allocations();
  (void)oracle_refine(base, trace, starts, params);
  EXPECT_GT(trace_hooks::record_allocations(), before_ref);

  // The refinement composes cursors over the existing buffer: zero.
  const std::uint64_t before = trace_hooks::record_allocations();
  (void)refine_phase_bounds(base, trace, starts, params, test_l2());
  EXPECT_EQ(trace_hooks::record_allocations() - before, 0u);
}

}  // namespace
}  // namespace spf
