// Configuration of the CMP simulator: cache hierarchy geometry, latencies,
// MSHR capacity, memory channel, and per-run knobs. Defaults mirror the
// paper's Table I machine (one Core 2 die: two cores sharing a 4 MB 16-way
// L2 with 64 B lines).
#pragma once

#include <cstdint>
#include <optional>

#include "spf/cache/replacement.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/memsys/memory.hpp"

namespace spf {

struct SimConfig {
  CacheGeometry l1 = CacheGeometry::core2_l1d();
  CacheGeometry l2 = CacheGeometry::core2_l2();
  /// L1 hit latency (cycles).
  Cycle l1_latency = 3;
  /// L2 hit latency beyond L1 (cycles); Core 2's L2 is ~14 cycles.
  Cycle l2_latency = 14;
  MemoryConfig memory{};
  /// Outstanding L2 misses (Core 2 supported ~16 per die).
  std::uint32_t l2_mshrs = 16;
  ReplacementKind replacement = ReplacementKind::kLru;
  /// Enable the per-core DPL + streamer hardware prefetchers.
  bool hw_prefetch = true;
  /// Capacity of the pollution tracker's eviction shadow table.
  std::uint32_t shadow_capacity = 8192;
  /// Track per-line prefetch-fill provenance (fate attribution, timeliness
  /// and victim reuse-distance histograms — see spf/sim/provenance.hpp).
  /// Observation-only: on or off, simulation outcomes are bit-identical; off
  /// (the default) skips the tracker entirely so hot paths pay one branch.
  bool provenance = false;
  /// Seed for the Random replacement policy (unused by deterministic ones).
  std::uint64_t seed = 0x5eed;
  /// When nonzero, snapshot the shared L2's occupancy composition roughly
  /// every this many cycles (see spf/sim/occupancy.hpp). 0 disables.
  Cycle occupancy_sample_interval = 0;
};

/// Round-based staggering of a helper core against a leader (main) core:
/// a record in round k (outer_iter / round_iters == k) may not issue until
/// the leader's outer iteration has entered round k. This models SP's
/// per-round synchronization between main and helper threads.
struct RoundSync {
  CoreId leader = 0;
  std::uint32_t round_iters = 1;
};

}  // namespace spf
