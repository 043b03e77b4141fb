// Prefetch-lifecycle provenance: follows every helper/hardware prefetch fill
// from the cycle it installs into L2 to its fate. The pollution tracker
// answers "how much useful data did prefetching displace?" in aggregate; this
// tracker answers the causal question behind the paper's distance argument —
// *why* a given distance pollutes — by classifying each prefetched line:
//
//   used_timely     a demand access hit the line after its fill (the fill
//                   arrived early enough, and not so early it was displaced).
//   used_late       the demand miss was already in flight when the prefetch
//                   fill completed (MSHR-merged): the prefetch was issued too
//                   late to hide the full miss latency (paper §II.B).
//   evicted_unused  the line was displaced before any demand use — the fill
//                   arrived prematurely relative to cache pressure.
//   polluting       the fill displaced a victim whose reuse was later
//                   confirmed by a demand miss (the §II.C case-1 signature,
//                   attributed back to the displacing fill).
//   resident_unused the line was still cached but never demand-used when the
//                   run ended (end-of-run remainder, kept so the fate counts
//                   partition the tracked fills exactly).
//
// Alongside the fate partition it records two log2-bucketed histograms in
// units of *demand L2 lookups* (the simulator's natural reuse clock):
// fill→first-use distance for used_timely fills, and displacement→re-miss
// reuse distance for shadow-confirmed victims. Bucket b >= 1 holds distances
// in [2^(b-1), 2^b); bucket counts are fixed so artifacts stay deterministic.
//
// The victim shadow IS PollutionTracker's shadow: displacement metadata rides
// the pollution table as a ShadowAux sidecar (attached at insert, handed back
// on the erase that confirms the reuse), so the reuse-distance histogram mass
// equals the pollution tracker's case-1 count by construction — a cross-check
// the property tests pin — and the tracker pays zero hash probes of its own.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/mem/types.hpp"
#include "spf/sim/pollution.hpp"

namespace spf {

/// Per-run provenance results. Plain additive counters plus fixed-size
/// histograms, so summaries of separate runs can be merged.
struct ProvenanceSummary {
  static constexpr std::size_t kHistogramBuckets = 32;

  /// False when the run did not track provenance (SimConfig::provenance off);
  /// consumers must treat every other field as absent.
  bool enabled = false;

  /// Helper/hardware prefetch fills that installed into L2 (demand-merged
  /// fills included — they classify as used_late at install time).
  std::uint64_t tracked_fills = 0;
  std::uint64_t helper_fills = 0;
  std::uint64_t hardware_fills = 0;

  // The five fates. Invariant: they sum to tracked_fills.
  std::uint64_t used_timely = 0;
  std::uint64_t used_late = 0;
  std::uint64_t evicted_unused = 0;
  std::uint64_t polluting = 0;
  std::uint64_t resident_unused = 0;

  /// Shadow-confirmed victim re-misses (== victim_reuse histogram mass).
  std::uint64_t reuse_confirms = 0;
  /// Confirmations that arrived after the displacing fill's own record had
  /// already resolved (its line was evicted first); counted but no longer
  /// re-attributable to a live fate.
  std::uint64_t late_pollution_confirms = 0;
  /// Sum of fill→first-use distances over used_timely fills (mean = this /
  /// used_timely).
  std::uint64_t fill_to_use_total = 0;
  /// Sets with at least one pollution event (== set_heatmap mass).
  std::uint64_t polluted_sets = 0;

  /// log2 histogram of fill→first-use distance, demand L2 lookups.
  std::array<std::uint64_t, kHistogramBuckets> fill_to_use{};
  /// log2 histogram of displacement→re-miss distance, demand L2 lookups.
  std::array<std::uint64_t, kHistogramBuckets> victim_reuse{};
  /// log2 histogram of per-set pollution event counts (one entry per
  /// polluted set), snapshotted from PollutionTracker's per-set table.
  std::array<std::uint64_t, kHistogramBuckets> set_heatmap{};

  /// Sum of the five fate counters; equals tracked_fills by construction.
  [[nodiscard]] std::uint64_t fate_total() const noexcept {
    return used_timely + used_late + evicted_unused + polluting +
           resident_unused;
  }
  [[nodiscard]] double timely_rate() const noexcept {
    return tracked_fills == 0
               ? 0.0
               : static_cast<double>(used_timely) /
                     static_cast<double>(tracked_fills);
  }
  [[nodiscard]] double fill_to_use_mean() const noexcept {
    return used_timely == 0 ? 0.0
                            : static_cast<double>(fill_to_use_total) /
                                  static_cast<double>(used_timely);
  }

  /// Bucket index for a demand-lookup distance: 0 for 0, else
  /// min(bit_width(d), kHistogramBuckets - 1).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t distance) noexcept {
    if (distance == 0) return 0;
    const auto width = static_cast<std::size_t>(std::bit_width(distance));
    return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
  }
};

class ProvenanceTracker {
 public:
  /// `live_capacity` sizes the slot-indexed record arrays; pass the L2 line
  /// count (records are keyed by the cache's row-major (set, way) slot, so
  /// this is exact, not a hint). The default suits unit tests.
  explicit ProvenanceTracker(std::size_t live_capacity = 1024);

  /// As-if-freshly-constructed (ExperimentContext reuse seam).
  void reset(std::size_t live_capacity = 1024);

  /// Advance the reuse clock: call once per *demand-core* L2 lookup.
  void on_demand_lookup() noexcept { ++demand_lookups_; }

  /// A prefetch fill (raw MSHR origin kHelper/kHardware, before any
  /// demand-merge upgrade) installs into cache slot `slot` (from
  /// Cache::fill's slot_out). When the install displaced a victim, call
  /// on_evicted_record FIRST — the victim's record lives at the same slot
  /// and must resolve before the displacing fill's record overwrites it.
  void on_fill(std::uint32_t slot, FillOrigin raw_origin, bool demand_merged);

  /// First demand use of a prefetch-origin line in cache slot `slot` (from
  /// Cache::access's first_use_slot report). Later hits on the same fill
  /// are ignored.
  void on_demand_hit(std::uint32_t slot);

  /// Payload to attach to the pollution shadow for an eviction out of cache
  /// slot `evictor_slot` (feed it to PollutionTracker's aux-carrying
  /// on_eviction overload). Links forward to the generation the displacing
  /// fill's record is about to be assigned: the pollution shadow only keeps
  /// it when the evictor is a non-merged prefetch fill, and exactly those
  /// fills reach on_fill next at the same slot, so the link cannot dangle.
  [[nodiscard]] ShadowAux eviction_aux(std::uint32_t evictor_slot) const
      noexcept {
    return ShadowAux{.evict_lookup = static_cast<std::uint32_t>(demand_lookups_),
                     .evictor_gen = static_cast<std::uint32_t>(next_gen_),
                     .evictor_slot = evictor_slot};
  }

  /// Every L2 eviction (same feed point as PollutionTracker::on_eviction):
  /// classify and retire the victim's live record at `slot`, if any. Inline
  /// because the common case — no record at the slot — is one byte test.
  void on_evicted_record(std::uint32_t slot) {
    if (flags_[slot] & kActive) {
      resolve(slot, /*evicted=*/true);
      flags_[slot] = 0;
    }
  }

  /// A demand miss PollutionTracker confirmed as case-1 pollution, with the
  /// ShadowAux its shadow handed back: bucket the victim's reuse distance
  /// and attribute the pollution to the displacing fill's record.
  void on_confirmed_reuse(const ShadowAux& aux);

  /// Snapshot the summary: resolved fates plus a provisional classification
  /// of still-live fills (resident_unused / used_timely), and the per-set
  /// pollution heatmap. Const — a paused run (CmpSimulator::progress)
  /// snapshots mid-replay and then continues.
  [[nodiscard]] ProvenanceSummary snapshot(
      const std::vector<std::uint64_t>& per_set_pollution) const;

  [[nodiscard]] std::uint64_t demand_lookups() const noexcept {
    return demand_lookups_;
  }

 private:
  // Live records are stored structure-of-arrays, indexed by cache slot: a
  // one-byte state array probed on every eviction and first use (small
  // enough to stay resident in the host's near caches), with the wider
  // per-record words touched only on the rarer state transitions. The
  // line->record hashing this replaces was the tracker's dominant cost —
  // one random probe into a multi-megabyte table per fill/eviction.
  static constexpr std::uint8_t kActive = 1;     // slot holds a live record
  static constexpr std::uint8_t kUsed = 2;       // first demand use seen
  static constexpr std::uint8_t kPolluting = 4;  // victim reuse confirmed
  static constexpr std::uint8_t kHardware = 8;   // origin (helper otherwise)

  /// Classify and retire the live record at `slot`. `evicted` distinguishes
  /// the evicted_unused fate from the end-of-run resident remainder.
  void resolve(std::uint32_t slot, bool evicted);

  /// The packed per-slot record word: low half is the clock field (fill
  /// lookup until first use, then the fill->first-use distance — the state
  /// machine never needs both at once), high half the record generation
  /// (assigned from next_gen_ at fill; the generation check in
  /// on_confirmed_reuse keeps a recycled slot from absorbing another fill's
  /// blame). Clocks and generations are truncated to 32 bits, so distances
  /// are computed modulo 2^32: exact below ~4.3 billion demand lookups,
  /// which a resident line would have to survive untouched to mis-bucket.
  /// Packing makes a fill's record update a single u64 store and halves the
  /// array the per-event touches land in.
  [[nodiscard]] static std::uint64_t pack(std::uint32_t clock,
                                          std::uint32_t gen) noexcept {
    return (static_cast<std::uint64_t>(gen) << 32) | clock;
  }
  [[nodiscard]] std::uint32_t clock_of(std::uint32_t slot) const noexcept {
    return static_cast<std::uint32_t>(words_[slot]);
  }
  [[nodiscard]] std::uint32_t gen_of(std::uint32_t slot) const noexcept {
    return static_cast<std::uint32_t>(words_[slot] >> 32);
  }

  std::uint64_t demand_lookups_ = 0;
  std::uint64_t next_gen_ = 0;
  ProvenanceSummary resolved_;
  /// Per-slot record state (kActive/kUsed/kPolluting/kHardware bits).
  std::vector<std::uint8_t> flags_;
  /// Packed clock/generation word per slot (see pack()).
  std::vector<std::uint64_t> words_;
};

}  // namespace spf
