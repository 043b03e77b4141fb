// Golden-artifact net for the hot-path data-layout refactors.
//
// A pinned 3-workload grid (em3d × mcf × mst, explicit distances, both RP
// regimes, both helper kinds) is swept at --threads=1 and --threads=8; the
// aggregated CSV and JSONL artifacts must be byte-identical to the
// checked-in goldens captured from the pre-refactor simulator. Any change to
// IR memory, cache/replacement layout, the pollution shadow table, or trace
// materialization that alters a single simulated event shows up here as a
// diff — the refactors must be *layout* changes, never *semantics* changes.
//
// Regenerate (only when an intentional semantic change lands):
//   SPF_REGEN_GOLDEN=1 ./test_golden_sweep
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "pinned_golden_spec.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"

#ifndef SPF_GOLDEN_DIR
#error "SPF_GOLDEN_DIR must point at tests/golden"
#endif

namespace spf::orchestrate {
namespace {

SweepSpec pinned_spec() { return pinned_golden_spec(); }

std::string golden_path(const char* name) {
  return std::string(SPF_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << "cannot write golden file " << path;
  out << content;
}

TEST(GoldenSweep, PinnedGridMatchesGoldenAtEveryThreadCount) {
  const SweepSpec spec = pinned_spec();

  SweepOptions serial;
  serial.threads = 1;
  const SweepResult a = run_sweep(spec, serial);
  ASSERT_EQ(a.cells.size(), 36u);
  ASSERT_EQ(a.failed_count(), 0u);

  SweepOptions parallel;
  parallel.threads = 8;
  const SweepResult b = run_sweep(spec, parallel);
  ASSERT_EQ(b.failed_count(), 0u);

  const std::string csv = a.to_csv();
  const std::string jsonl = a.to_jsonl();
  // Thread count must never leak into the artifacts.
  EXPECT_EQ(csv, b.to_csv());
  EXPECT_EQ(jsonl, b.to_jsonl());

  if (std::getenv("SPF_REGEN_GOLDEN") != nullptr) {
    write_file(golden_path("pinned_sweep.csv"), csv);
    write_file(golden_path("pinned_sweep.jsonl"), jsonl);
    GTEST_SKIP() << "goldens regenerated — review and commit the diff";
  }

  EXPECT_EQ(csv, read_file(golden_path("pinned_sweep.csv")))
      << "CSV artifact drifted from the pre-refactor golden";
  EXPECT_EQ(jsonl, read_file(golden_path("pinned_sweep.jsonl")))
      << "JSONL artifact drifted from the pre-refactor golden";
}

TEST(GoldenSweep, SharedPoolMemoizesTracesWithoutChangingArtifacts) {
  const SweepSpec spec = pinned_spec();
  const auto pool = std::make_shared<ExperimentContextPool>(8);

  SweepOptions warm;
  warm.threads = 8;
  warm.pool = pool;
  const SweepResult first = run_sweep(spec, warm);
  ASSERT_EQ(first.failed_count(), 0u);
  // Three workloads, each emitted exactly once; every plane and cell after
  // phase 1 re-fetches through the memo and counts as a hit.
  EXPECT_EQ(pool->trace_memo_stats().misses, 3u);
  EXPECT_GT(pool->trace_memo_stats().hits, 0u);

  // A second sweep over the same pool re-emits nothing at all.
  const SweepResult second = run_sweep(spec, warm);
  ASSERT_EQ(second.failed_count(), 0u);
  EXPECT_EQ(pool->trace_memo_stats().misses, 3u);

  // And a serial sweep leasing from the same warm pool agrees byte for byte.
  SweepOptions serial;
  serial.threads = 1;
  serial.pool = pool;
  const SweepResult third = run_sweep(spec, serial);
  ASSERT_EQ(third.failed_count(), 0u);
  EXPECT_EQ(pool->trace_memo_stats().misses, 3u);

  const std::string csv = first.to_csv();
  const std::string jsonl = first.to_jsonl();
  EXPECT_EQ(csv, second.to_csv());
  EXPECT_EQ(jsonl, second.to_jsonl());
  EXPECT_EQ(csv, third.to_csv());
  EXPECT_EQ(jsonl, third.to_jsonl());

  if (std::getenv("SPF_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden regeneration handled by the pinned-grid test";
  }
  EXPECT_EQ(csv, read_file(golden_path("pinned_sweep.csv")))
      << "memoized sweep drifted from the golden artifact";
  EXPECT_EQ(jsonl, read_file(golden_path("pinned_sweep.jsonl")))
      << "memoized sweep drifted from the golden artifact";
}

}  // namespace
}  // namespace spf::orchestrate
