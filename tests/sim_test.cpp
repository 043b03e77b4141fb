// Unit tests for the CMP simulator: access classification (totally hit /
// partially hit / totally miss), timing, MSHR pressure, round-gated helper
// synchronization, and determinism.
#include <gtest/gtest.h>

#include <stdexcept>

#include "spf/common/rng.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/core/helper_gen.hpp"

namespace spf {
namespace {

// Small, fully deterministic config: no hardware prefetch, LRU, fixed
// latencies. L1 hit = 3, L2 hit = +14, memory = 300 with 8-cycle channel
// slots.
SimConfig base_config() {
  SimConfig c;
  c.l1 = CacheGeometry(1024, 2, 64);  // 8 sets x 2 ways: tiny L1
  c.l2 = CacheGeometry(64 * 1024, 16, 64);
  c.l1_latency = 3;
  c.l2_latency = 14;
  c.memory.service_latency = 300;
  c.memory.issue_interval = 8;
  c.l2_mshrs = 8;
  c.hw_prefetch = false;
  return c;
}

Addr line_addr(std::uint64_t n) { return n * 64; }

TEST(SimulatorTest, ColdMissPaysFullLatency) {
  TraceBuffer t;
  t.emit(line_addr(1), 0, AccessKind::kRead, 0);
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  const ThreadMetrics& m = r.main();
  EXPECT_EQ(m.demand_accesses, 1u);
  EXPECT_EQ(m.totally_misses, 1u);
  EXPECT_EQ(m.totally_hits, 0u);
  // L1 lookup (3) + memory (300) + L2 return (14).
  EXPECT_EQ(m.finish_time, 3u + 300u + 14u);
}

TEST(SimulatorTest, RepeatAccessHitsL1) {
  TraceBuffer t;
  t.emit(line_addr(1), 0, AccessKind::kRead, 0);
  t.emit(line_addr(1), 0, AccessKind::kRead, 0);
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().l1_hits, 1u);
  EXPECT_EQ(r.main().l2_lookups, 1u);
  EXPECT_EQ(r.main().finish_time, 317u + 3u);
}

TEST(SimulatorTest, L1ConflictMissCanStillTotallyHitL2) {
  // Two lines mapping to the same tiny-L1 set evict each other in L1 but
  // both stay resident in the larger L2.
  SimConfig cfg = base_config();
  cfg.l1 = CacheGeometry(128, 1, 64);  // 2 sets x 1 way
  TraceBuffer t;
  for (int rep = 0; rep < 3; ++rep) {
    t.emit(line_addr(0), 0, AccessKind::kRead, 0);  // L1 set 0
    t.emit(line_addr(2), 0, AccessKind::kRead, 0);  // also L1 set 0
  }
  CmpSimulator sim(cfg);
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().totally_misses, 2u);  // first touch each
  EXPECT_EQ(r.main().totally_hits, 4u);    // L2 keeps both
  EXPECT_EQ(r.main().l1_hits, 0u);
}

TEST(SimulatorTest, ComputeGapAdvancesClock) {
  TraceBuffer t;
  t.emit(line_addr(1), 0, AccessKind::kRead, 0, 0, 100);
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().finish_time, 100u + 317u);
}

TEST(SimulatorTest, HelperFillMakesMainTotallyHit) {
  // Helper (core 1) reads line B early; main reaches B long after the fill
  // completed -> totally hit, and the fill was helper-origin.
  TraceBuffer main_t;
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0);            // miss: 317
  main_t.emit(line_addr(2), 0, AccessKind::kRead, 0, 0, 600);    // B, late
  TraceBuffer helper_t;
  helper_t.emit(line_addr(2), 0, AccessKind::kRead, 0);  // B at t~0

  CmpSimulator sim(base_config());
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t, .origin = FillOrigin::kHelper},
  });
  EXPECT_EQ(r.main().totally_misses, 1u);
  EXPECT_EQ(r.main().totally_hits, 1u);
  EXPECT_EQ(r.main().partially_hits, 0u);
}

TEST(SimulatorTest, InFlightHelperFillIsPartialHit) {
  // Helper issues B late enough that main arrives while B is still in
  // flight: the paper's partially hit.
  TraceBuffer main_t;
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0);          // miss: done 317
  main_t.emit(line_addr(2), 0, AccessKind::kRead, 0, 0, 10);   // B at ~330
  TraceBuffer helper_t;
  helper_t.emit(line_addr(2), 0, AccessKind::kRead, 0, 0, 200);  // B issued ~203

  CmpSimulator sim(base_config());
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t, .origin = FillOrigin::kHelper},
  });
  EXPECT_EQ(r.main().partially_hits, 1u);
  EXPECT_EQ(r.main().totally_misses, 1u);
  // Main waited only the residual: finish well before two full round trips.
  EXPECT_LT(r.main().finish_time, 317u + 10u + 317u);
  EXPECT_EQ(r.mshr.demand_merges_into_prefetch, 1u);
}

TEST(SimulatorTest, SoftwarePrefetchDoesNotBlockIssuer) {
  TraceBuffer t;
  for (int i = 0; i < 5; ++i) {
    t.emit(line_addr(10 + i), 0, AccessKind::kPrefetch, 0);
  }
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().prefetches_issued, 5u);
  EXPECT_EQ(r.main().demand_accesses, 0u);
  // One cycle per prefetch: the core never stalls on fills.
  EXPECT_LE(r.main().finish_time, 5u + 2u);
}

TEST(SimulatorTest, SoftwarePrefetchElidedWhenCachedOrInFlight) {
  TraceBuffer t;
  t.emit(line_addr(3), 0, AccessKind::kRead, 0);      // brings the line in
  t.emit(line_addr(3), 0, AccessKind::kPrefetch, 0);  // already cached
  t.emit(line_addr(4), 0, AccessKind::kPrefetch, 0);  // issues
  t.emit(line_addr(4), 0, AccessKind::kPrefetch, 0);  // in flight: elided
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().prefetches_issued, 1u);
  EXPECT_EQ(r.main().prefetches_elided, 2u);
}

TEST(SimulatorTest, PrefetchDroppedWhenMshrsFull) {
  SimConfig cfg = base_config();
  cfg.l2_mshrs = 2;
  TraceBuffer t;
  for (int i = 0; i < 5; ++i) {
    t.emit(line_addr(20 + i), 0, AccessKind::kPrefetch, 0);
  }
  CmpSimulator sim(cfg);
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.main().prefetches_issued, 2u);
  EXPECT_EQ(r.main().prefetches_dropped, 3u);
}

TEST(SimulatorTest, DemandStallsWhenMshrsFullThenProceeds) {
  SimConfig cfg = base_config();
  cfg.l2_mshrs = 1;
  TraceBuffer main_t;
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0, 0, 2);
  TraceBuffer helper_t;
  helper_t.emit(line_addr(2), 0, AccessKind::kPrefetch, 0);  // occupies the MSHR

  CmpSimulator sim(cfg);
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t, .origin = FillOrigin::kHelper},
  });
  // Helper prefetch fills at 1+300=301; main could not issue before that.
  EXPECT_EQ(r.main().totally_misses, 1u);
  EXPECT_GE(r.main().finish_time, 301u + 300u);
}

TEST(SimulatorTest, RoundSyncGatesHelper) {
  // Main spends 1000 cycles in round 0; helper's round-1 record must not
  // issue before main enters round 1.
  TraceBuffer main_t;
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0, 0, 1000);  // round 0
  main_t.emit(line_addr(2), 1, AccessKind::kRead, 0, 0, 10);    // round 1
  TraceBuffer helper_t;
  helper_t.emit(line_addr(50), 1, AccessKind::kRead, 0);  // round 1 only

  CmpSimulator sim(base_config());
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t,
                 .origin = FillOrigin::kHelper,
                 .sync = RoundSync{.leader = 0, .round_iters = 1}},
  });
  // Main entered round 1 at 1000+317 = 1317; the helper resumed there and
  // its single miss finishes >= 1317 + 317.
  EXPECT_GE(r.per_core[1].finish_time, 1317u + 317u);
}

TEST(SimulatorTest, UngatedHelperRunsImmediately) {
  TraceBuffer main_t;
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0, 0, 1000);
  main_t.emit(line_addr(2), 1, AccessKind::kRead, 0, 0, 10);
  TraceBuffer helper_t;
  helper_t.emit(line_addr(50), 1, AccessKind::kRead, 0);

  CmpSimulator sim(base_config());
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t, .origin = FillOrigin::kHelper},
  });
  EXPECT_LT(r.per_core[1].finish_time, 400u);
}

TEST(SimulatorTest, HelperFillsCarryHelperOrigin) {
  // Helper-origin fills that get displaced unused must surface in the L2
  // provenance counters.
  SimConfig cfg = base_config();
  cfg.l2 = CacheGeometry(1024, 2, 64);  // 8 sets x 2 ways: tiny, evicts fast
  TraceBuffer helper_t;
  // 3 lines in the same L2 set (stride = num_sets * line): set 0.
  for (int i = 0; i < 3; ++i) {
    helper_t.emit(line_addr(static_cast<std::uint64_t>(i) * 8), 0,
                  AccessKind::kRead, 0);
  }
  TraceBuffer main_t;  // main sits idle past helper activity
  main_t.emit(line_addr(1), 0, AccessKind::kRead, 0, 0, 5000);

  CmpSimulator sim(cfg);
  const SimResult r = sim.run({
      CoreStream{.trace = &main_t},
      CoreStream{.trace = &helper_t, .origin = FillOrigin::kHelper},
  });
  EXPECT_EQ(r.l2.evicted_unused_helper, 1u);
  EXPECT_EQ(r.pollution.case2_helper_displaced, 1u);
}

TEST(SimulatorTest, HardwarePrefetchHelpsSequentialStream) {
  SimConfig off = base_config();
  SimConfig on = base_config();
  on.hw_prefetch = true;
  TraceBuffer t;
  for (std::uint64_t i = 0; i < 200; ++i) {
    t.emit(line_addr(i), static_cast<std::uint32_t>(i), AccessKind::kRead, 1);
  }
  CmpSimulator sim_off(off);
  CmpSimulator sim_on(on);
  const SimResult r_off = sim_off.run({CoreStream{.trace = &t}});
  const SimResult r_on = sim_on.run({CoreStream{.trace = &t}});
  EXPECT_LT(r_on.main().totally_misses, r_off.main().totally_misses);
  EXPECT_GT(r_on.hw_prefetches_issued, 0u);
  EXPECT_LT(r_on.main().finish_time, r_off.main().finish_time);
}

TEST(SimulatorTest, DirtyEvictionsCountAsWritebacks) {
  SimConfig cfg = base_config();
  cfg.l2 = CacheGeometry(1024, 2, 64);  // 8 sets x 2 ways: evicts quickly
  TraceBuffer t;
  // Write three lines in the same L2 set, then stream more lines through it
  // so the dirty ones get evicted.
  for (std::uint64_t i = 0; i < 6; ++i) {
    t.emit(line_addr(i * 8), 0, AccessKind::kWrite, 0);
  }
  CmpSimulator sim(cfg);
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_GE(r.memory.writebacks, 4u);  // 6 dirty fills into a 2-way set
  EXPECT_EQ(r.memory.requests, 6u);
}

TEST(SimulatorTest, CleanEvictionsAreNotWrittenBack) {
  SimConfig cfg = base_config();
  cfg.l2 = CacheGeometry(1024, 2, 64);
  TraceBuffer t;
  for (std::uint64_t i = 0; i < 6; ++i) {
    t.emit(line_addr(i * 8), 0, AccessKind::kRead, 0);
  }
  CmpSimulator sim(cfg);
  const SimResult r = sim.run({CoreStream{.trace = &t}});
  EXPECT_EQ(r.memory.writebacks, 0u);
}


TEST(SimulatorTest, FourCoresShareTheL2Deterministically) {
  // Four independent streams over overlapping footprints: per-core
  // accounting stays isolated, sharing effects are visible, and the run is
  // reproducible.
  std::vector<TraceBuffer> traces(4);
  Xoshiro256 rng(21);
  for (std::uint32_t c = 0; c < 4; ++c) {
    for (std::uint32_t i = 0; i < 1500; ++i) {
      traces[c].emit(line_addr(rng.below(1024)), i / 4, AccessKind::kRead,
                     static_cast<std::uint8_t>(c), 0, 2);
    }
  }
  SimConfig cfg = base_config();
  cfg.hw_prefetch = true;
  auto run_once = [&] {
    CmpSimulator sim(cfg);
    return sim.run({CoreStream{.trace = &traces[0]},
                    CoreStream{.trace = &traces[1]},
                    CoreStream{.trace = &traces[2]},
                    CoreStream{.trace = &traces[3]}});
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  ASSERT_EQ(a.per_core.size(), 4u);
  std::uint64_t total_mem_acc = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(a.per_core[c].demand_accesses, 1500u);
    EXPECT_EQ(a.per_core[c].totally_hits, b.per_core[c].totally_hits);
    EXPECT_EQ(a.per_core[c].finish_time, b.per_core[c].finish_time);
    total_mem_acc += a.per_core[c].memory_accesses();
  }
  // Shared structures saw the union of the traffic.
  EXPECT_EQ(a.memory.requests,
            total_mem_acc - a.mshr.merges + a.hw_prefetches_issued);
}

TEST(SimulatorTest, TwoHelpersWithDifferentLeadersCoexist) {
  // Two main threads, each with its own round-gated helper (4 cores total):
  // the gating must be per-pair.
  TraceBuffer main_a;
  TraceBuffer main_b;
  for (std::uint32_t i = 0; i < 400; ++i) {
    main_a.emit(line_addr(2000 + i), i, AccessKind::kRead, 0, kFlagSpine, 3);
    main_b.emit(line_addr(4000 + i), i, AccessKind::kRead, 0, kFlagSpine, 3);
  }
  const TraceBuffer helper_a =
      make_helper_trace(main_a, SpParams{.a_ski = 4, .a_pre = 4});
  const TraceBuffer helper_b =
      make_helper_trace(main_b, SpParams{.a_ski = 4, .a_pre = 4});
  CmpSimulator sim(base_config());
  const SimResult r = sim.run({
      CoreStream{.trace = &main_a},
      CoreStream{.trace = &main_b},
      CoreStream{.trace = &helper_a,
                 .origin = FillOrigin::kHelper,
                 .sync = RoundSync{.leader = 0, .round_iters = 8}},
      CoreStream{.trace = &helper_b,
                 .origin = FillOrigin::kHelper,
                 .sync = RoundSync{.leader = 1, .round_iters = 8}},
  });
  EXPECT_EQ(r.per_core[0].demand_accesses, 400u);
  EXPECT_EQ(r.per_core[1].demand_accesses, 400u);
  // Both helpers ran to completion under their own leaders.
  EXPECT_GT(r.per_core[2].demand_accesses, 0u);
  EXPECT_GT(r.per_core[3].demand_accesses, 0u);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  TraceBuffer main_t;
  TraceBuffer helper_t;
  Xoshiro256 rng(5);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    main_t.emit(line_addr(rng.below(512)), i / 4, AccessKind::kRead, 1, 0, 2);
    if (i % 2 == 0) {
      helper_t.emit(line_addr(rng.below(512)), i / 4, AccessKind::kRead, 1);
    }
  }
  SimConfig cfg = base_config();
  cfg.hw_prefetch = true;
  auto run_once = [&] {
    CmpSimulator sim(cfg);
    return sim.run({
        CoreStream{.trace = &main_t},
        CoreStream{.trace = &helper_t,
                   .origin = FillOrigin::kHelper,
                   .sync = RoundSync{.leader = 0, .round_iters = 4}},
    });
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.main().totally_hits, b.main().totally_hits);
  EXPECT_EQ(a.main().partially_hits, b.main().partially_hits);
  EXPECT_EQ(a.main().totally_misses, b.main().totally_misses);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.pollution.total_pollution(), b.pollution.total_pollution());
  EXPECT_EQ(a.memory.requests, b.memory.requests);
}

TEST(SimulatorTest, ClassificationPartitionsL2Lookups) {
  TraceBuffer main_t;
  Xoshiro256 rng(9);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    main_t.emit(line_addr(rng.below(2048)), i / 8, AccessKind::kRead, 1, 0, 1);
  }
  SimConfig cfg = base_config();
  cfg.hw_prefetch = true;
  CmpSimulator sim(cfg);
  const SimResult r = sim.run({CoreStream{.trace = &main_t}});
  const ThreadMetrics& m = r.main();
  EXPECT_EQ(m.totally_hits + m.partially_hits + m.totally_misses, m.l2_lookups);
  EXPECT_EQ(m.l1_hits + m.l2_lookups, m.demand_accesses);
}

TEST(SimulatorTest, ZeroMshrsRejectedBeforeAnyStateChanges) {
  TraceBuffer t;
  for (std::uint64_t i = 0; i < 64; ++i) {
    t.emit(line_addr(i * 3), 0, AccessKind::kRead, 0);
  }
  SimConfig none = base_config();
  none.l2_mshrs = 0;
  CmpSimulator fresh(none);
  EXPECT_THROW((void)fresh.run({CoreStream{.trace = &t}}),
               std::invalid_argument);

  // A rejected run leaves a used simulator as reusable as a finished one.
  CmpSimulator sim(base_config());
  const SimResult first = sim.run({CoreStream{.trace = &t}});
  EXPECT_THROW((void)sim.run(none, {CoreStream{.trace = &t}}),
               std::invalid_argument);
  const SimResult again = sim.run(base_config(), {CoreStream{.trace = &t}});
  EXPECT_EQ(again.main().finish_time, first.main().finish_time);
  EXPECT_EQ(again.main().totally_misses, first.main().totally_misses);
  EXPECT_EQ(again.mshr.allocations, first.mshr.allocations);
}

TEST(SimulatorDeathTest, SyncLeaderMustBeAnotherCore) {
  TraceBuffer t;
  t.emit(0, 0, AccessKind::kRead, 0);
  CmpSimulator sim(base_config());
  std::vector<CoreStream> streams{
      CoreStream{.trace = &t,
                 .origin = FillOrigin::kDemand,
                 .sync = RoundSync{.leader = 0, .round_iters = 1}}};
  EXPECT_DEATH(sim.run(streams), "leader");
}

}  // namespace
}  // namespace spf
