// spf::orchestrate — the parallel sweep engine's contract:
//  * every job runs exactly once, results land in id-indexed slots;
//  * a throwing job is isolated (captured outcome, sweep completes);
//  * aggregated CSV/JSONL artifacts are byte-identical across thread counts;
//  * progress reports are serialized and monotone.
#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "spf/common/jsonl.hpp"
#include "spf/orchestrate/pool.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"

namespace spf::orchestrate {
namespace {

Em3dConfig tiny_em3d() {
  Em3dConfig c;
  c.nodes = 2000;
  c.arity = 8;
  c.passes = 1;
  return c;
}

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.workloads.push_back(em3d_spec(tiny_em3d()));
  spec.distances = {1, 2, 4};
  spec.rps = {0.5, 1.0};
  spec.geometries = {CacheGeometry(256 << 10, 8, 64)};
  return spec;
}

TEST(Pool, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
  EXPECT_GE(resolve_threads(0), 1u);
}

TEST(Pool, RunsEveryJobExactlyOnce) {
  for (const unsigned threads : {1u, 8u}) {
    std::vector<std::atomic<int>> hits(100);
    const auto outcomes = run_indexed(
        hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    ASSERT_EQ(outcomes.size(), 100u);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "job " << i << ", threads " << threads;
      EXPECT_TRUE(outcomes[i].ok);
    }
    EXPECT_EQ(first_error(outcomes), "");
  }
}

TEST(Pool, ThrowingJobIsIsolated) {
  for (const unsigned threads : {1u, 8u}) {
    std::vector<std::atomic<int>> hits(10);
    const auto outcomes = run_indexed(hits.size(), threads, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 3) throw std::runtime_error("boom");
      if (i == 7) throw 42;  // non-std exception
    });
    EXPECT_FALSE(outcomes[3].ok);
    EXPECT_EQ(outcomes[3].error, "boom");
    EXPECT_FALSE(outcomes[7].ok);
    EXPECT_EQ(outcomes[7].error, "non-standard exception");
    EXPECT_EQ(first_error(outcomes), "boom");
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1);
      if (i != 3 && i != 7) {
        EXPECT_TRUE(outcomes[i].ok);
      }
    }
  }
}

TEST(Pool, ProgressIsMonotoneAndComplete) {
  for (const unsigned threads : {1u, 6u}) {
    std::vector<std::size_t> seen;
    run_indexed(
        25, threads, [](std::size_t) {},
        [&](std::size_t done, std::size_t total) {
          EXPECT_EQ(total, 25u);
          seen.push_back(done);  // serialized by the engine
        });
    ASSERT_EQ(seen.size(), 25u);
    for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
  }
}

TEST(Jsonl, DeterministicFormatting) {
  JsonObject obj;
  obj.add("s", "a\"b\\c\nd")
      .add("i", static_cast<std::int64_t>(-3))
      .add("u", static_cast<std::uint64_t>(7))
      .add("d", 0.5)
      .add("b", true)
      .add_null("n");
  EXPECT_EQ(obj.line(),
            R"({"s":"a\"b\\c\nd","i":-3,"u":7,"d":0.5,"b":true,"n":null})");
  EXPECT_EQ(json_double(1.0 / 3.0), "0.33333333333333331");
}

TEST(Sweep, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const SweepSpec spec = tiny_spec();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;

  const SweepResult a = run_sweep(spec, serial);
  const SweepResult b = run_sweep(spec, parallel);

  ASSERT_EQ(a.cells.size(), 6u);
  EXPECT_EQ(a.failed_count(), 0u);
  EXPECT_EQ(b.failed_count(), 0u);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  EXPECT_NE(a.to_csv().find("em3d"), std::string::npos);
}

TEST(Sweep, CellsExpandInGridOrder) {
  const SweepResult r = run_sweep(tiny_spec(), SweepOptions{.threads = 1});
  ASSERT_EQ(r.cells.size(), 6u);
  const std::uint32_t want_distance[] = {1, 2, 4, 1, 2, 4};
  const double want_rp[] = {0.5, 0.5, 0.5, 1.0, 1.0, 1.0};
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    EXPECT_EQ(r.cells[i].cell.id, i);
    EXPECT_EQ(r.cells[i].cell.distance, want_distance[i]);
    EXPECT_EQ(r.cells[i].cell.rp, want_rp[i]);
    EXPECT_EQ(r.cells[i].cell.workload, "em3d");
  }
}

TEST(Sweep, ControllerAxisExpandsInnermostAndCarriesTrajectories) {
  SweepSpec spec = tiny_spec();
  spec.distances = {4};
  spec.rps = {0.5};
  spec.controllers = {ControllerKind::kStatic, ControllerKind::kAdaptiveAimd,
                      ControllerKind::kAdaptiveCapped};
  spec.adaptive.interval_iters = 500;
  spec.adaptive.max_distance = 1024;
  const SweepResult r = run_sweep(spec, SweepOptions{.threads = 1});
  ASSERT_EQ(r.cells.size(), 3u);
  EXPECT_EQ(r.failed_count(), 0u);
  EXPECT_EQ(r.cells[0].cell.controller, ControllerKind::kStatic);
  EXPECT_EQ(r.cells[1].cell.controller, ControllerKind::kAdaptiveAimd);
  EXPECT_EQ(r.cells[2].cell.controller, ControllerKind::kAdaptiveCapped);

  // Static cells carry no trajectory; adaptive cells carry a full one.
  EXPECT_FALSE(r.cells[0].adaptive.has_value());
  for (const std::size_t i : {1u, 2u}) {
    ASSERT_TRUE(r.cells[i].adaptive.has_value()) << "cell " << i;
    const AdaptiveCellStats& stats = *r.cells[i].adaptive;
    EXPECT_GT(stats.intervals, 0u);
    EXPECT_EQ(stats.trajectory.size(), stats.intervals);
    EXPECT_LE(stats.final_distance, stats.distance_cap);
    for (const std::uint32_t d : stats.trajectory) {
      EXPECT_GE(d, spec.adaptive.min_distance);
      EXPECT_LE(d, stats.distance_cap);
    }
  }
  // The free AIMD walk keeps the spec's ceiling; the capped walk is clamped
  // to the plane's Set-Affinity bound (the paper's static analysis still
  // governs the dynamic controller).
  EXPECT_EQ(r.cells[1].adaptive->distance_cap, 1024u);
  ASSERT_GT(r.cells[2].cell.bound_upper, 0u);
  EXPECT_EQ(r.cells[2].adaptive->distance_cap,
            std::min(1024u, r.cells[2].cell.bound_upper));

  // The static cell is the classic fixed-distance run: identical to the
  // same grid swept without a controller axis.
  SweepSpec static_only = spec;
  static_only.controllers = {ControllerKind::kStatic};
  const SweepResult s = run_sweep(static_only, SweepOptions{.threads = 1});
  ASSERT_EQ(s.cells.size(), 1u);
  EXPECT_EQ(s.cells[0].cmp->sp.runtime, r.cells[0].cmp->sp.runtime);
  EXPECT_EQ(s.cells[0].cmp->sp.l2_lookups, r.cells[0].cmp->sp.l2_lookups);
}

TEST(Sweep, AdaptiveArtifactsAreByteIdenticalAcrossThreadCounts) {
  SweepSpec spec = tiny_spec();
  spec.rps = {0.5};
  spec.controllers = {ControllerKind::kStatic, ControllerKind::kAdaptiveAimd,
                      ControllerKind::kAdaptiveCapped};
  spec.adaptive.interval_iters = 500;
  const SweepResult a = run_sweep(spec, SweepOptions{.threads = 1});
  const SweepResult b = run_sweep(spec, SweepOptions{.threads = 8});
  ASSERT_EQ(a.cells.size(), 9u);  // 3 distances x 3 controllers
  EXPECT_EQ(a.failed_count(), 0u);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  EXPECT_NE(a.to_jsonl().find("\"controller\":\"adaptive-capped\""),
            std::string::npos);
  EXPECT_NE(a.to_jsonl().find("\"trajectory\":["), std::string::npos);
  EXPECT_NE(a.to_jsonl().find("\"pollution_rate\":"), std::string::npos);
}

TEST(Sweep, ValidateChecksControllerAxis) {
  SweepSpec spec = tiny_spec();
  spec.controllers = {};
  EXPECT_NE(spec.validate(), "");
  spec.controllers = {ControllerKind::kStatic, ControllerKind::kStatic};
  EXPECT_NE(spec.validate(), "");
  spec.controllers = {ControllerKind::kAdaptiveAimd};
  spec.adaptive.interval_iters = 0;
  EXPECT_NE(spec.validate(), "");
  // An unrunnable adaptive policy is fine while the axis is all-static.
  spec.controllers = {ControllerKind::kStatic};
  EXPECT_EQ(spec.validate(), "");
}

TEST(Sweep, ThrowingCellIsIsolatedAndReported) {
  const SweepSpec spec = tiny_spec();
  SweepOptions opts;
  opts.threads = 8;
  opts.cell_hook = [](const SweepCell& cell) {
    if (cell.id == 2) throw std::runtime_error("injected fault");
  };
  const SweepResult r = run_sweep(spec, opts);
  ASSERT_EQ(r.cells.size(), 6u);
  EXPECT_EQ(r.failed_count(), 1u);
  EXPECT_FALSE(r.cells[2].ok);
  EXPECT_EQ(r.cells[2].error, "injected fault");
  for (const std::size_t i : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_TRUE(r.cells[i].ok) << "cell " << i;
  }
  // The failed cell still occupies its row in both artifacts.
  EXPECT_NE(r.to_csv().find("failed: injected fault"), std::string::npos);
  EXPECT_NE(r.to_jsonl().find("\"error\":\"injected fault\""),
            std::string::npos);
}

TEST(Sweep, FailedWorkloadFailsOnlyItsCells) {
  SweepSpec spec = tiny_spec();
  WorkloadSpec bad;
  bad.name = "bad";
  bad.make = []() -> std::shared_ptr<const TraceSource> {
    throw std::runtime_error("no trace for you");
  };
  spec.workloads.push_back(bad);

  const SweepResult r = run_sweep(spec, SweepOptions{.threads = 8});
  ASSERT_EQ(r.cells.size(), 12u);
  EXPECT_EQ(r.failed_count(), 6u);
  for (const auto& c : r.cells) {
    if (c.cell.workload == "em3d") {
      EXPECT_TRUE(c.ok);
    } else {
      EXPECT_FALSE(c.ok);
      EXPECT_NE(c.error.find("no trace for you"), std::string::npos);
    }
  }
}

TEST(Sweep, UnsaturatedPlaneFailsOnlyItsCells) {
  SweepSpec spec = tiny_spec();
  // 64 distinct lines fit the 256 KiB L2 many times over: no set saturates,
  // so the plane has no Set-Affinity bound.
  TraceSource fits;
  for (std::uint32_t i = 0; i < 64; ++i) {
    fits.trace.emit(Addr{i} * 64, i, AccessKind::kRead, 0);
  }
  fits.invocation_starts = {0};
  spec.workloads.push_back(from_source("fits", std::move(fits)));

  const SweepResult r = run_sweep(spec, SweepOptions{.threads = 2});
  ASSERT_EQ(r.cells.size(), 12u);
  EXPECT_EQ(r.failed_count(), 6u);
  for (const auto& c : r.cells) {
    if (c.cell.workload == "em3d") {
      EXPECT_TRUE(c.ok) << "cell " << c.cell.id << ": " << c.error;
    } else {
      EXPECT_FALSE(c.ok);
      EXPECT_NE(c.error.find("no cache set saturates"), std::string::npos)
          << c.error;
    }
  }
}

TEST(Sweep, AutoDistancesLadderAroundTheBound) {
  SweepSpec spec = tiny_spec();
  spec.distances.clear();  // auto mode
  spec.rps = {0.5};
  const SweepResult r = run_sweep(spec, SweepOptions{.threads = 2});
  ASSERT_FALSE(r.cells.empty());
  EXPECT_EQ(r.failed_count(), 0u);
  const std::uint32_t bound = r.cells[0].cell.bound_upper;
  EXPECT_GT(bound, 0u);
  // Ladder spans both sides of the bound.
  EXPECT_LT(r.cells.front().cell.distance, bound);
  EXPECT_GE(r.cells.back().cell.distance, bound);
}

TEST(Sweep, FromSourceReusesTheGivenTrace) {
  const Em3dWorkload workload(tiny_em3d());
  TraceSource source{workload.emit_trace(), workload.invocation_starts()};
  const std::size_t records = source.trace.size();
  const WorkloadSpec spec = from_source("em3d-pre", std::move(source));
  const std::shared_ptr<const TraceSource> got = spec.make();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->trace.size(), records);
  EXPECT_EQ(spec.name, "em3d-pre");
  // Every make() call hands out the same materialized source, no copies.
  EXPECT_EQ(spec.make().get(), got.get());
}

TEST(Sweep, NullTraceSourceFailsTheWorkloadCells) {
  SweepSpec spec = tiny_spec();
  WorkloadSpec bad;
  bad.name = "null";
  bad.make = []() -> std::shared_ptr<const TraceSource> { return nullptr; };
  spec.workloads.push_back(bad);

  const SweepResult r = run_sweep(spec, SweepOptions{.threads = 2});
  EXPECT_EQ(r.failed_count(), r.cells.size() / 2);
  for (const auto& c : r.cells) {
    if (c.cell.workload == "null") {
      EXPECT_FALSE(c.ok);
      EXPECT_NE(c.error.find("no trace source"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace spf::orchestrate
