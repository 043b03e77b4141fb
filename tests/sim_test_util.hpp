// Shared helpers for the simulator differential suites: full-field equality
// over SimResult, SpRunSummary and AdaptiveRunResult, used to pin the
// simulator bit-identical to the record-at-a-time oracle in
// tests/replay_oracle.hpp (replay_differential_test.cpp,
// sim_stream_differential_test.cpp, adaptive_property_test.cpp) and to its
// precomputed-L1 path (l1_hits_test.cpp).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "spf/core/adaptive.hpp"
#include "spf/core/experiment.hpp"
#include "spf/sim/result.hpp"

namespace spf::test {

inline void expect_same_thread_metrics(const ThreadMetrics& a,
                                       const ThreadMetrics& b,
                                       std::size_t core) {
  SCOPED_TRACE("core " + std::to_string(core));
  EXPECT_EQ(a.demand_accesses, b.demand_accesses);
  EXPECT_EQ(a.l1_hits, b.l1_hits);
  EXPECT_EQ(a.l2_lookups, b.l2_lookups);
  EXPECT_EQ(a.totally_hits, b.totally_hits);
  EXPECT_EQ(a.partially_hits, b.partially_hits);
  EXPECT_EQ(a.totally_misses, b.totally_misses);
  EXPECT_EQ(a.prefetches_issued, b.prefetches_issued);
  EXPECT_EQ(a.prefetches_elided, b.prefetches_elided);
  EXPECT_EQ(a.prefetches_dropped, b.prefetches_dropped);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

inline void expect_same_result(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.per_core.size(), b.per_core.size());
  for (std::size_t i = 0; i < a.per_core.size(); ++i) {
    expect_same_thread_metrics(a.per_core[i], b.per_core[i], i);
  }

  EXPECT_EQ(a.pollution.case1_reuse_displaced, b.pollution.case1_reuse_displaced);
  EXPECT_EQ(a.pollution.case2_helper_displaced,
            b.pollution.case2_helper_displaced);
  EXPECT_EQ(a.pollution.case3_hw_displaced, b.pollution.case3_hw_displaced);
  EXPECT_EQ(a.pollution.prefetch_caused_evictions,
            b.pollution.prefetch_caused_evictions);
  EXPECT_EQ(a.pollution.total_evictions, b.pollution.total_evictions);

  EXPECT_EQ(a.l2.lookups, b.l2.lookups);
  EXPECT_EQ(a.l2.hits, b.l2.hits);
  EXPECT_EQ(a.l2.misses, b.l2.misses);
  EXPECT_EQ(a.l2.fills, b.l2.fills);
  EXPECT_EQ(a.l2.evictions, b.l2.evictions);
  EXPECT_EQ(a.l2.evicted_unused_helper, b.l2.evicted_unused_helper);
  EXPECT_EQ(a.l2.evicted_unused_hw, b.l2.evicted_unused_hw);

  EXPECT_EQ(a.mshr.allocations, b.mshr.allocations);
  EXPECT_EQ(a.mshr.merges, b.mshr.merges);
  EXPECT_EQ(a.mshr.demand_merges_into_prefetch,
            b.mshr.demand_merges_into_prefetch);
  EXPECT_EQ(a.mshr.full_rejections, b.mshr.full_rejections);
  EXPECT_EQ(a.mshr.peak_occupancy, b.mshr.peak_occupancy);

  EXPECT_EQ(a.memory.requests, b.memory.requests);
  for (int o = 0; o < 3; ++o) {
    EXPECT_EQ(a.memory.requests_by_origin[o], b.memory.requests_by_origin[o]);
  }
  EXPECT_EQ(a.memory.writebacks, b.memory.writebacks);
  EXPECT_EQ(a.memory.total_queue_delay, b.memory.total_queue_delay);
  EXPECT_EQ(a.memory.busy_cycles, b.memory.busy_cycles);

  EXPECT_EQ(a.hw_prefetches_issued, b.hw_prefetches_issued);
  EXPECT_EQ(a.polluted_set_count, b.polluted_set_count);
  EXPECT_EQ(a.top_polluted_sets, b.top_polluted_sets);
  EXPECT_EQ(a.makespan, b.makespan);

  ASSERT_EQ(a.occupancy.samples.size(), b.occupancy.samples.size());
  for (std::size_t i = 0; i < a.occupancy.samples.size(); ++i) {
    const OccupancySample& x = a.occupancy.samples[i];
    const OccupancySample& y = b.occupancy.samples[i];
    SCOPED_TRACE("occupancy sample " + std::to_string(i));
    EXPECT_EQ(x.when, y.when);
    EXPECT_EQ(x.demand_lines, y.demand_lines);
    EXPECT_EQ(x.helper_used, y.helper_used);
    EXPECT_EQ(x.helper_unused, y.helper_unused);
    EXPECT_EQ(x.hw_used, y.hw_used);
    EXPECT_EQ(x.hw_unused, y.hw_unused);
  }
}

inline void expect_same_summary(const SpRunSummary& got,
                                const SpRunSummary& want) {
  EXPECT_EQ(got.runtime, want.runtime);
  EXPECT_EQ(got.l2_lookups, want.l2_lookups);
  EXPECT_EQ(got.totally_hits, want.totally_hits);
  EXPECT_EQ(got.partially_hits, want.partially_hits);
  EXPECT_EQ(got.totally_misses, want.totally_misses);
  EXPECT_EQ(got.memory_requests, want.memory_requests);
  EXPECT_EQ(got.helper_finish, want.helper_finish);
  EXPECT_EQ(got.pollution.case1_reuse_displaced,
            want.pollution.case1_reuse_displaced);
  EXPECT_EQ(got.pollution.case2_helper_displaced,
            want.pollution.case2_helper_displaced);
  EXPECT_EQ(got.pollution.case3_hw_displaced,
            want.pollution.case3_hw_displaced);
  EXPECT_EQ(got.pollution.prefetch_caused_evictions,
            want.pollution.prefetch_caused_evictions);
  EXPECT_EQ(got.pollution.total_evictions, want.pollution.total_evictions);
  const ProvenanceSummary& a = got.provenance;
  const ProvenanceSummary& b = want.provenance;
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.tracked_fills, b.tracked_fills);
  EXPECT_EQ(a.helper_fills, b.helper_fills);
  EXPECT_EQ(a.hardware_fills, b.hardware_fills);
  EXPECT_EQ(a.used_timely, b.used_timely);
  EXPECT_EQ(a.used_late, b.used_late);
  EXPECT_EQ(a.evicted_unused, b.evicted_unused);
  EXPECT_EQ(a.polluting, b.polluting);
  EXPECT_EQ(a.resident_unused, b.resident_unused);
  EXPECT_EQ(a.reuse_confirms, b.reuse_confirms);
  EXPECT_EQ(a.late_pollution_confirms, b.late_pollution_confirms);
  EXPECT_EQ(a.fill_to_use_total, b.fill_to_use_total);
  EXPECT_EQ(a.polluted_sets, b.polluted_sets);
  EXPECT_EQ(a.fill_to_use, b.fill_to_use);
  EXPECT_EQ(a.victim_reuse, b.victim_reuse);
  EXPECT_EQ(a.set_heatmap, b.set_heatmap);
}

inline void expect_identical(const AdaptiveRunResult& got,
                             const AdaptiveRunResult& want) {
  EXPECT_EQ(got.intervals, want.intervals);
  EXPECT_EQ(got.distance_trajectory, want.distance_trajectory);
  EXPECT_EQ(got.initial_distance, want.initial_distance);
  EXPECT_EQ(got.increases, want.increases);
  EXPECT_EQ(got.decreases, want.decreases);
  ASSERT_EQ(got.reclamps.size(), want.reclamps.size());
  for (std::size_t i = 0; i < got.reclamps.size(); ++i) {
    SCOPED_TRACE("reclamp " + std::to_string(i));
    EXPECT_EQ(got.reclamps[i].interval, want.reclamps[i].interval);
    EXPECT_EQ(got.reclamps[i].phase, want.reclamps[i].phase);
    EXPECT_EQ(got.reclamps[i].cap, want.reclamps[i].cap);
    EXPECT_EQ(got.reclamps[i].distance_after, want.reclamps[i].distance_after);
  }
  expect_same_summary(got.aggregate, want.aggregate);
}

}  // namespace spf::test
