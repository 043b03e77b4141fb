// Prefetch-lifecycle provenance: tracker unit tests, the observer-effect
// differential (provenance on must not change a byte of the pinned golden
// artifacts), and the lifecycle accounting properties on real runs.
//
// The differential reuses the checked-in pinned-grid goldens
// (tests/golden/pinned_sweep.{csv,jsonl}): with provenance ON the CSV must
// still match byte-for-byte (the table never carries provenance), and each
// JSONL row must extend the golden row purely by appending prov_* fields —
// the off-row minus its closing brace is a byte prefix of the on-row.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pinned_golden_spec.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/sim/pollution.hpp"
#include "spf/sim/provenance.hpp"

#ifndef SPF_GOLDEN_DIR
#error "SPF_GOLDEN_DIR must point at tests/golden"
#endif

namespace spf {
namespace {

Eviction make_eviction(LineAddr victim_line, FillOrigin victim_origin,
                       bool victim_used, std::uint32_t slot,
                       FillOrigin evictor_origin) {
  Eviction ev;
  ev.victim.line = victim_line;
  ev.victim.valid = true;
  ev.victim.origin = victim_origin;
  ev.victim.used_since_fill = victim_used;
  ev.replaced_by = victim_line + 10000;  // evictor line identity is untracked
  ev.replaced_by_origin = evictor_origin;
  ev.slot = slot;
  return ev;
}

/// Wires a PollutionTracker and ProvenanceTracker together the way the
/// simulator's drain loop does: displacement metadata rides the pollution
/// shadow as a ShadowAux sidecar, handed back on the confirming demand miss.
struct LifecycleHarness {
  PollutionTracker pollution;
  ProvenanceTracker prov;

  LifecycleHarness()
      : pollution(64, CacheGeometry(64 * 1024, 8, 64)), prov(1024) {
    pollution.enable_shadow_aux();
  }

  void evict(const Eviction& ev) {
    pollution.on_eviction(ev, prov.eviction_aux(ev.slot));
    prov.on_evicted_record(ev.slot);
  }

  bool demand_miss(LineAddr line) {
    ShadowAux aux;
    if (!pollution.on_demand_miss(line, &aux)) return false;
    prov.on_confirmed_reuse(aux);
    return true;
  }
};

ProvenanceSummary snap(const ProvenanceTracker& t) {
  return t.snapshot({});
}

void expect_partition(const ProvenanceSummary& s) {
  EXPECT_EQ(s.fate_total(), s.tracked_fills)
      << "the five fates must partition the tracked fills";
  EXPECT_EQ(s.helper_fills + s.hardware_fills, s.tracked_fills);
}

TEST(ProvenanceSummaryTest, BucketOfIsLog2WithSaturation) {
  EXPECT_EQ(ProvenanceSummary::bucket_of(0), 0u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1), 1u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(2), 2u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(3), 2u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(4), 3u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1023), 10u);
  EXPECT_EQ(ProvenanceSummary::bucket_of(1024), 11u);
  // Distances past 2^30 saturate into the last bucket instead of overflowing.
  EXPECT_EQ(ProvenanceSummary::bucket_of(std::uint64_t{1} << 40),
            ProvenanceSummary::kHistogramBuckets - 1);
  EXPECT_EQ(ProvenanceSummary::bucket_of(~std::uint64_t{0}),
            ProvenanceSummary::kHistogramBuckets - 1);
}

TEST(ProvenanceTrackerTest, TimelyUseRecordsFirstUseDistance) {
  ProvenanceTracker t(64);
  // Three demand lookups pass, the prefetch fills, three more lookups, hit.
  for (int i = 0; i < 3; ++i) t.on_demand_lookup();
  t.on_fill(7, FillOrigin::kHelper, /*demand_merged=*/false);
  for (int i = 0; i < 3; ++i) t.on_demand_lookup();
  t.on_demand_hit(7);

  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.tracked_fills, 1u);
  EXPECT_EQ(s.helper_fills, 1u);
  EXPECT_EQ(s.used_timely, 1u);
  EXPECT_EQ(s.fill_to_use_total, 3u);
  EXPECT_EQ(s.fill_to_use[ProvenanceSummary::bucket_of(3)], 1u);
  // Only the first use defines the distance; later hits must not re-bucket.
  t.on_demand_lookup();
  t.on_demand_hit(7);
  const ProvenanceSummary again = snap(t);
  EXPECT_EQ(again.fill_to_use_total, 3u);
  EXPECT_EQ(again.used_timely, 1u);
}

TEST(ProvenanceTrackerTest, DemandMergedFillIsUsedLateImmediately) {
  ProvenanceTracker t(64);
  t.on_fill(9, FillOrigin::kHardware, /*demand_merged=*/true);
  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.tracked_fills, 1u);
  EXPECT_EQ(s.hardware_fills, 1u);
  EXPECT_EQ(s.used_late, 1u);
  // No live record remains: a later "hit" on the line is not a timely use.
  t.on_demand_lookup();
  t.on_demand_hit(9);
  EXPECT_EQ(snap(t).used_timely, 0u);
}

TEST(ProvenanceTrackerTest, DisplacedBeforeUseIsEvictedUnused) {
  ProvenanceTracker t(64);
  t.on_fill(11, FillOrigin::kHelper, false);
  t.on_evicted_record(11);
  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.evicted_unused, 1u);
  EXPECT_EQ(s.used_timely, 0u);
}

TEST(ProvenanceTrackerTest, StillResidentUnusedAtSnapshotTime) {
  ProvenanceTracker t(64);
  t.on_fill(13, FillOrigin::kHardware, false);
  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.resident_unused, 1u);
  // snapshot() is const and provisional: the fill can still earn a better
  // fate afterwards (a paused adaptive run snapshots mid-replay).
  t.on_demand_lookup();
  t.on_demand_hit(13);
  const ProvenanceSummary later = snap(t);
  expect_partition(later);
  EXPECT_EQ(later.resident_unused, 0u);
  EXPECT_EQ(later.used_timely, 1u);
}

TEST(ProvenanceTrackerTest, ConfirmedVictimReuseMarksTheFillPolluting) {
  LifecycleHarness h;
  ProvenanceTracker& t = h.prov;
  t.on_demand_lookup();  // clock = 1
  // The fill displaces used demand data (the case-1 raw material). Eviction
  // precedes the fill that causes it — the drain order — and the shadowed
  // aux links forward to the generation the fill is about to receive.
  h.evict(make_eviction(500, FillOrigin::kDemand, /*victim_used=*/true,
                        /*slot=*/17, FillOrigin::kHelper));
  t.on_fill(17, FillOrigin::kHelper, false);
  for (int i = 0; i < 5; ++i) t.on_demand_lookup();
  // ...and the processor comes back for the victim: reuse confirmed.
  EXPECT_TRUE(h.demand_miss(500));

  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.polluting, 1u);
  EXPECT_EQ(s.reuse_confirms, 1u);
  EXPECT_EQ(s.late_pollution_confirms, 0u);
  EXPECT_EQ(s.victim_reuse[ProvenanceSummary::bucket_of(5)], 1u);
  // The aux ride keeps the two trackers in lockstep on case-1 counts.
  EXPECT_EQ(h.pollution.stats().case1_reuse_displaced, s.reuse_confirms);
  // Polluting outranks used_timely: a demand hit after the confirmation
  // must not reclassify the fill.
  t.on_demand_lookup();
  t.on_demand_hit(17);
  const ProvenanceSummary after = snap(t);
  expect_partition(after);
  EXPECT_EQ(after.polluting, 1u);
  EXPECT_EQ(after.used_timely, 0u);
}

TEST(ProvenanceTrackerTest, ConfirmAfterFillResolvedCountsAsLateConfirm) {
  LifecycleHarness h;
  ProvenanceTracker& t = h.prov;
  h.evict(make_eviction(600, FillOrigin::kDemand, true, /*slot=*/19,
                        FillOrigin::kHelper));
  t.on_fill(19, FillOrigin::kHelper, false);
  // The displacing fill itself gets evicted before the victim's reuse shows.
  h.evict(make_eviction(19, FillOrigin::kHelper, false, /*slot=*/19,
                        FillOrigin::kDemand));
  t.on_demand_lookup();
  EXPECT_TRUE(h.demand_miss(600));

  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  EXPECT_EQ(s.evicted_unused, 1u);  // the fill's fate was already sealed
  EXPECT_EQ(s.polluting, 0u);
  EXPECT_EQ(s.reuse_confirms, 1u);  // the victim reuse still counts...
  EXPECT_EQ(s.late_pollution_confirms, 1u);  // ...flagged as late
}

TEST(ProvenanceTrackerTest, RecycledSlotDoesNotAbsorbStaleBlame) {
  LifecycleHarness h;
  ProvenanceTracker& t = h.prov;
  h.evict(make_eviction(800, FillOrigin::kDemand, true, /*slot=*/31,
                        FillOrigin::kHelper));
  t.on_fill(31, FillOrigin::kHelper, false);
  // The displacing fill is itself displaced, and an unrelated prefetch
  // recycles the same cache slot before the victim's reuse shows up.
  h.evict(make_eviction(801, FillOrigin::kHelper, false, /*slot=*/31,
                        FillOrigin::kHardware));
  t.on_fill(31, FillOrigin::kHardware, false);
  t.on_demand_lookup();
  EXPECT_TRUE(h.demand_miss(800));

  const ProvenanceSummary s = snap(t);
  expect_partition(s);
  // The generation check exonerates the new record living at slot 31.
  EXPECT_EQ(s.polluting, 0u);
  EXPECT_EQ(s.late_pollution_confirms, 1u);
  EXPECT_EQ(s.reuse_confirms, 1u);
}

TEST(ProvenanceTrackerTest, DemandEvictionClearsTheVictimShadow) {
  LifecycleHarness h;
  ProvenanceTracker& t = h.prov;
  h.evict(make_eviction(700, FillOrigin::kDemand, true, /*slot=*/23,
                        FillOrigin::kHelper));
  t.on_fill(23, FillOrigin::kHelper, false);
  // The victim line comes back and is displaced again by a *demand* fill:
  // the stale shadow entry (and its aux) dies with it.
  h.evict(make_eviction(700, FillOrigin::kDemand, true, /*slot=*/42,
                        FillOrigin::kDemand));
  EXPECT_FALSE(h.demand_miss(700));
  const ProvenanceSummary s = snap(t);
  EXPECT_EQ(s.reuse_confirms, 0u);
  EXPECT_EQ(s.polluting, 0u);
}

TEST(ProvenanceTrackerTest, ResetReturnsToFreshState) {
  ProvenanceTracker t(64);
  t.on_demand_lookup();
  t.on_fill(29, FillOrigin::kHelper, false);
  t.reset(64);
  EXPECT_EQ(t.demand_lookups(), 0u);
  const ProvenanceSummary s = snap(t);
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.tracked_fills, 0u);
  EXPECT_EQ(s.fate_total(), 0u);
}

// ---- observer-effect differential against the pinned goldens -------------

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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(ProvenanceDifferentialTest, ProvenanceOnLeavesTableBytesUntouched) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  spec.provenance = true;

  orchestrate::SweepOptions serial;
  serial.threads = 1;
  const orchestrate::SweepResult a = run_sweep(spec, serial);
  ASSERT_EQ(a.cells.size(), 36u);
  ASSERT_EQ(a.failed_count(), 0u);

  orchestrate::SweepOptions parallel;
  parallel.threads = 8;
  const orchestrate::SweepResult b = run_sweep(spec, parallel);
  ASSERT_EQ(b.failed_count(), 0u);

  // Thread count must never leak into the artifacts, provenance or not.
  EXPECT_EQ(a.to_csv(), b.to_csv());
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());

  if (std::getenv("SPF_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden regeneration handled by the pinned-grid test";
  }
  // The table carries no provenance columns: byte-identical to the golden.
  EXPECT_EQ(a.to_csv(), read_file(golden_path("pinned_sweep.csv")))
      << "provenance tracking changed the simulated metrics — the observer "
         "must never perturb the run";

  // Each JSONL row extends its golden row purely by appended prov_* fields:
  // the golden row minus its closing brace is a byte prefix of the new row.
  const std::vector<std::string> on_lines = split_lines(a.to_jsonl());
  const std::vector<std::string> golden_lines =
      split_lines(read_file(golden_path("pinned_sweep.jsonl")));
  ASSERT_EQ(on_lines.size(), golden_lines.size());
  for (std::size_t i = 0; i < on_lines.size(); ++i) {
    const std::string& off = golden_lines[i];
    ASSERT_FALSE(off.empty());
    ASSERT_EQ(off.back(), '}');
    const std::string prefix = off.substr(0, off.size() - 1);
    ASSERT_GT(on_lines[i].size(), off.size()) << "row " << i
        << " gained no provenance fields";
    EXPECT_EQ(on_lines[i].compare(0, prefix.size(), prefix), 0)
        << "row " << i << " diverged before the provenance suffix";
    EXPECT_EQ(on_lines[i][prefix.size()], ',');
    EXPECT_NE(on_lines[i].find("\"prov_tracked_fills\":"), std::string::npos);
    EXPECT_EQ(on_lines[i].back(), '}');
  }
}

// ---- lifecycle accounting properties on real runs ------------------------

TEST(ProvenancePropertyTest, AccountingInvariantsHoldAcrossThePinnedGrid) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  spec.provenance = true;
  orchestrate::SweepOptions opts;
  opts.threads = 8;
  const orchestrate::SweepResult result = run_sweep(spec, opts);
  ASSERT_EQ(result.failed_count(), 0u);

  std::uint64_t total_tracked = 0;
  for (const auto& c : result.cells) {
    ASSERT_TRUE(c.cmp.has_value());
    const ProvenanceSummary& p = c.cmp->sp.provenance;
    ASSERT_TRUE(p.enabled) << "SweepSpec::provenance must reach every cell";
    total_tracked += p.tracked_fills;

    // The five fates partition the tracked fills; origins partition them too.
    EXPECT_EQ(p.fate_total(), p.tracked_fills);
    EXPECT_EQ(p.helper_fills + p.hardware_fills, p.tracked_fills);

    // Histogram masses equal their counters.
    std::uint64_t fill_mass = 0, reuse_mass = 0, heat_mass = 0;
    for (std::size_t b = 0; b < ProvenanceSummary::kHistogramBuckets; ++b) {
      fill_mass += p.fill_to_use[b];
      reuse_mass += p.victim_reuse[b];
      heat_mass += p.set_heatmap[b];
    }
    EXPECT_EQ(fill_mass, p.used_timely);
    EXPECT_EQ(reuse_mass, p.reuse_confirms);
    EXPECT_EQ(heat_mass, p.polluted_sets);

    // The victim shadow mirrors PollutionTracker operation-for-operation,
    // so confirmed reuses equal the paper's case-1 count exactly.
    EXPECT_EQ(p.reuse_confirms,
              c.cmp->sp.pollution.case1_reuse_displaced)
        << "victim-shadow drift: provenance and pollution disagree on "
           "confirmed displaced-reuse events";

    // Derived quantities stay consistent.
    EXPECT_GE(p.timely_rate(), 0.0);
    EXPECT_LE(p.timely_rate(), 1.0);
    if (p.used_timely == 0) {
      EXPECT_EQ(p.fill_to_use_total, 0u);
    }
  }
  // The grid prefetches: a provenance layer that tracked nothing anywhere
  // would pass every per-cell invariant vacuously.
  EXPECT_GT(total_tracked, 0u);
}

TEST(ProvenancePropertyTest, DisabledRunsCarryNoProvenance) {
  orchestrate::SweepSpec spec = orchestrate::pinned_golden_spec();
  ASSERT_FALSE(spec.provenance);  // default off
  orchestrate::SweepOptions opts;
  opts.threads = 8;
  const orchestrate::SweepResult result = run_sweep(spec, opts);
  ASSERT_EQ(result.failed_count(), 0u);
  for (const auto& c : result.cells) {
    ASSERT_TRUE(c.cmp.has_value());
    EXPECT_FALSE(c.cmp->sp.provenance.enabled);
    EXPECT_EQ(c.cmp->sp.provenance.tracked_fills, 0u);
  }
}

}  // namespace
}  // namespace spf
