// Coverage for small public-API corners not exercised by the behavioural
// suites: string renderings, counters, and summary helpers a downstream user
// would touch first.
#include <gtest/gtest.h>

#include "spf/cache/cache.hpp"
#include "spf/common/csv.hpp"
#include "spf/core/advisor.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/prefetch/stream.hpp"
#include "spf/prefetch/stride.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/mcf.hpp"

namespace spf {
namespace {

TEST(ApiSurfaceTest, TableRowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row().add("x");
  t.row().add("y");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(ApiSurfaceTest, TablePadsShortRows) {
  Table t({"a", "b", "c"});
  t.row().add("only-one-cell");
  const std::string text = t.to_string();
  EXPECT_NE(text.find("only-one-cell"), std::string::npos);
}

TEST(ApiSurfaceTest, CacheStatsHitRate) {
  CacheStats s;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.0);
  s.lookups = 10;
  s.hits = 4;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.4);
}

TEST(ApiSurfaceTest, OccupancyEmptySeries) {
  OccupancySeries series;
  EXPECT_TRUE(series.empty());
  EXPECT_DOUBLE_EQ(series.mean_unused_prefetch_fraction(), 0.0);
  EXPECT_EQ(series.peak_unused_prefetch(), 0u);
  // A sample with zero total lines must not divide by zero.
  series.samples.push_back(OccupancySample{.when = 1});
  EXPECT_DOUBLE_EQ(series.mean_unused_prefetch_fraction(), 0.0);
}

TEST(ApiSurfaceTest, MetricsToStringSmoke) {
  ThreadMetrics m;
  m.demand_accesses = 3;
  m.totally_misses = 2;
  EXPECT_NE(m.to_string().find("Tmiss=2"), std::string::npos);
  SimResult r;
  r.per_core.push_back(m);
  EXPECT_NE(r.to_string().find("core0"), std::string::npos);
  EXPECT_EQ(r.main().demand_accesses, 3u);
}

TEST(ApiSurfaceTest, PrefetcherIssuedCounters) {
  StrideConfig sc;
  sc.threshold = 1;
  sc.degree = 2;
  StridePrefetcher stride(sc);
  LineAddr out[kMaxPrefetchDegree]{};
  std::uint64_t written = 0;
  for (int i = 0; i < 4; ++i) {
    written += stride.observe_into(
        PrefetchObservation{.addr = static_cast<Addr>(i) * 256, .site = 1,
                            .was_miss = true},
        out);
  }
  EXPECT_EQ(stride.issued(), written);

  StreamPrefetcher stream{StreamConfig{}};
  written = 0;
  for (const Addr a : {Addr{0}, Addr{64}}) {
    written += stream.observe_into(
        PrefetchObservation{.addr = a, .site = 0, .was_miss = true}, out);
  }
  EXPECT_EQ(stream.issued(), written);
}

TEST(ApiSurfaceTest, AdvisorOnMcfRecommendsLargeDistance) {
  McfConfig c;
  c.nodes = 3000;
  c.arcs = 18000;
  c.passes = 2;
  McfWorkload w(c);
  AdvisorConfig cfg;
  cfg.l2 = CacheGeometry(128 * 1024, 16, 64);
  cfg.validate = false;
  const AdvisorReport report =
      advise_sp(w.emit_trace(), w.invocation_starts(), cfg);
  // MCF's SA is huge: the bound (and hence the recommendation) should allow
  // distances in the hundreds at this scale.
  EXPECT_GT(report.bound.upper_limit, 100u);
  EXPECT_GE(report.recommended.a_ski, 50u);
  EXPECT_NEAR(report.rp, 0.5, 0.1);
}

TEST(ApiSurfaceTest, SpRunSummaryFromSimResult) {
  SimResult r;
  ThreadMetrics main;
  main.finish_time = 123;
  main.totally_hits = 7;
  main.partially_hits = 2;
  main.totally_misses = 5;
  main.l2_lookups = 14;
  r.per_core.push_back(main);
  ThreadMetrics helper;
  helper.finish_time = 99;
  r.per_core.push_back(helper);
  r.memory.requests = 42;
  const SpRunSummary s = SpRunSummary::from(r);
  EXPECT_EQ(s.runtime, 123u);
  EXPECT_EQ(s.memory_accesses(), 7u);
  EXPECT_EQ(s.helper_finish, 99u);
  EXPECT_EQ(s.memory_requests, 42u);
}

TEST(ApiSurfaceTest, ExperimentContextMatchesFreeFunctionsAndIsReusable) {
  Em3dConfig wl;
  wl.nodes = 1500;
  wl.arity = 8;
  wl.passes = 1;
  const TraceBuffer trace = Em3dWorkload(wl).emit_trace();

  SpExperimentConfig cfg;
  cfg.sim.l2 = CacheGeometry(64 * 1024, 8, 64);
  cfg.params = SpParams::from_distance_rp(4, 0.5);

  const SpComparison reference = run_sp_experiment(trace, cfg);

  ExperimentContext ctx;
  // First use and a reuse of the same context must both reproduce the free
  // function bit-for-bit (the context only recycles storage, never state).
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    const SpComparison got = ctx.run_comparison(trace, cfg);
    EXPECT_EQ(got.original.runtime, reference.original.runtime);
    EXPECT_EQ(got.original.totally_misses, reference.original.totally_misses);
    EXPECT_EQ(got.sp.runtime, reference.sp.runtime);
    EXPECT_EQ(got.sp.totally_hits, reference.sp.totally_hits);
    EXPECT_EQ(got.sp.partially_hits, reference.sp.partially_hits);
    EXPECT_EQ(got.sp.totally_misses, reference.sp.totally_misses);
    EXPECT_EQ(got.sp.helper_finish, reference.sp.helper_finish);
    EXPECT_EQ(got.sp.pollution.total_pollution(),
              reference.sp.pollution.total_pollution());
  }
  // Also usable with a different geometry afterwards (reset seam).
  SpExperimentConfig other = cfg;
  other.sim.l2 = CacheGeometry(128 * 1024, 16, 64);
  const SpComparison resized = ctx.run_comparison(trace, other);
  EXPECT_EQ(resized.original.runtime,
            run_original(trace, other).runtime);
  EXPECT_GT(ctx.arena_bytes(), 0u);
}

TEST(ApiSurfaceTest, ExperimentContextPoolLeases) {
  ExperimentContextPool pool(2);
  EXPECT_EQ(pool.idle(), 2u);
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    EXPECT_EQ(pool.idle(), 0u);
    // Oversubscription mints a temporary rather than blocking.
    auto c = pool.acquire();
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(ApiSurfaceTest, SweepSpecValidateRejectsBadGrids) {
  using orchestrate::SweepSpec;
  SweepSpec empty;
  EXPECT_NE(empty.validate().find("no workloads"), std::string::npos);

  SweepSpec spec;
  spec.workloads.push_back(orchestrate::from_source(
      "w", orchestrate::TraceSource{}));
  EXPECT_TRUE(spec.validate().empty()) << spec.validate();

  SweepSpec bad_rp = spec;
  bad_rp.rps = {1.5};
  EXPECT_NE(bad_rp.validate().find("outside (0, 1]"), std::string::npos);
  bad_rp.rps = {0.0};
  EXPECT_NE(bad_rp.validate().find("outside (0, 1]"), std::string::npos);
  bad_rp.rps = {};
  EXPECT_NE(bad_rp.validate().find("no prefetch ratios"), std::string::npos);

  SweepSpec dup = spec;
  dup.distances = {4, 8, 4};
  EXPECT_NE(dup.validate().find("duplicate"), std::string::npos);
  dup.distances = {0};
  EXPECT_NE(dup.validate().find("distance 0"), std::string::npos);

  SweepSpec no_geom = spec;
  no_geom.geometries.clear();
  EXPECT_NE(no_geom.validate().find("no L2 geometries"), std::string::npos);

  SweepSpec no_helper = spec;
  no_helper.helpers.clear();
  EXPECT_NE(no_helper.validate().find("no helper kinds"), std::string::npos);

  // run_sweep refuses invalid specs loudly instead of crashing mid-grid.
  EXPECT_THROW((void)orchestrate::run_sweep(bad_rp), std::invalid_argument);
}

}  // namespace
}  // namespace spf
