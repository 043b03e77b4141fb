// Cache pollution accounting, implementing the paper's three cases (§II.C):
//
//   "Cache pollution due to threaded prefetching can happen in several cases:
//    1. A prematurely prefetched block displaces data in the cache that will
//       be reused by the processor.
//    2. A prematurely prefetched block displaces data in the cache that is
//       just fetched by helper thread but still not be used by the processor.
//    3. A prematurely prefetched block displaces data in the cache that is
//       just prefetched by hardware prefetchers but still not be used by the
//       processor."
//
// Cases 2 and 3 are decidable at eviction time from the victim's metadata
// (an unused helper/hardware fill displaced by a prefetch fill). Case 1
// needs future knowledge — "will be reused" — so evictions of *useful* data
// by prefetch fills are remembered in a bounded shadow table; a later demand
// miss on a shadowed line confirms the reuse and counts the event.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/common/ring_buffer.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/mem/types.hpp"

namespace spf {

struct PollutionStats {
  /// Prefetch fill displaced useful data that was later demand-missed.
  std::uint64_t case1_reuse_displaced = 0;
  /// Prefetch fill displaced an unused helper-thread fill.
  std::uint64_t case2_helper_displaced = 0;
  /// Prefetch fill displaced an unused hardware-prefetch fill.
  std::uint64_t case3_hw_displaced = 0;
  /// All evictions whose *evictor* was a prefetch fill (denominator).
  std::uint64_t prefetch_caused_evictions = 0;
  /// All evictions (any cause).
  std::uint64_t total_evictions = 0;

  [[nodiscard]] std::uint64_t total_pollution() const noexcept {
    return case1_reuse_displaced + case2_helper_displaced + case3_hw_displaced;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Auxiliary payload a companion observer can attach to a shadow entry. The
/// table moves it with the entry and hands it back on erase, but never reads
/// it — the fields mean whatever the attaching tracker says they mean (today:
/// ProvenanceTracker's displacement metadata; see docs/provenance.md). Riding
/// on the pollution shadow's hash work keeps the companion's per-eviction
/// cost at zero extra probes.
struct ShadowAux {
  std::uint32_t evict_lookup = 0;
  std::uint32_t evictor_gen = 0;
  std::uint32_t evictor_slot = 0;
};

/// Bounded open-addressing map from shadowed line to the origin of the fill
/// that evicted it. Linear probing with backward-shift deletion (no
/// tombstones), sized to at most half-full for the tracker's fixed capacity,
/// so lookups on the per-miss hot path touch one or two contiguous slots
/// instead of chasing unordered_map buckets. Never iterated — membership and
/// size are the only observable behaviour, so the probe order cannot leak
/// into artifacts.
class ShadowTable {
 public:
  explicit ShadowTable(std::uint32_t capacity);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// As-if-freshly-constructed with `capacity`, reusing slot storage. Aux
  /// storage is dropped; re-enable after reset if needed.
  void reset(std::uint32_t capacity);

  /// Allocate the per-slot aux array. Until enabled (the default), aux
  /// pointers passed to insert/erase are ignored and the table does no extra
  /// work beyond one predictable branch per operation.
  void enable_aux();

  // The probes run on the simulator's per-eviction and per-miss paths, so
  // they are defined inline below.

  /// Insert `line`, overwriting the stored origin if already present. With
  /// aux enabled and `aux` non-null, the payload is stored alongside.
  void insert_or_assign(LineAddr line, FillOrigin origin,
                        const ShadowAux* aux = nullptr) {
    std::size_t i = home_of(line);
    while (slots_[i].occupied) {
      if (slots_[i].line == line) {
        slots_[i].origin = origin;
        if (aux != nullptr && !aux_.empty()) aux_[i] = *aux;
        return;
      }
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{.line = line, .origin = origin, .occupied = true};
    if (aux != nullptr && !aux_.empty()) aux_[i] = *aux;
    ++size_;
  }

  /// Remove `line` if present; returns true when it was. With aux enabled
  /// and `aux_out` non-null, the entry's payload is copied out first.
  bool erase(LineAddr line, ShadowAux* aux_out = nullptr) {
    std::size_t i = home_of(line);
    while (slots_[i].occupied) {
      if (slots_[i].line == line) {
        if (aux_out != nullptr && !aux_.empty()) *aux_out = aux_[i];
        erase_at(i);
        --size_;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

 private:
  struct Slot {
    LineAddr line = 0;
    FillOrigin origin = FillOrigin::kDemand;
    bool occupied = false;
  };

  [[nodiscard]] std::size_t home_of(LineAddr line) const noexcept {
    // Fibonacci multiply-shift onto the power-of-two table.
    return (line * 0x9E3779B97F4A7C15ull) & mask_;
  }
  void erase_at(std::size_t hole) {
    // Backward-shift deletion: pull each displaced successor in the probe
    // chain into the hole instead of leaving a tombstone.
    slots_[hole].occupied = false;
    std::size_t j = hole;
    for (;;) {
      j = (j + 1) & mask_;
      if (!slots_[j].occupied) return;
      const std::size_t home = home_of(slots_[j].line);
      // The element at j may move into the hole only if its home position
      // is not cyclically inside (hole, j] — otherwise probing would lose
      // it.
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (home <= j || home > hole);
      if (stays) continue;
      slots_[hole] = slots_[j];
      if (!aux_.empty()) aux_[hole] = aux_[j];
      slots_[j].occupied = false;
      hole = j;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_;
  std::size_t size_ = 0;
  /// Slot-parallel payloads; empty (and cost-free) unless enable_aux() ran.
  std::vector<ShadowAux> aux_;
};

class PollutionTracker {
 public:
  /// `geometry` attributes every pollution event to its cache set, making
  /// the per-set damage distribution (the spatial counterpart of per-set
  /// Set Affinity) queryable afterwards.
  PollutionTracker(std::uint32_t shadow_capacity, const CacheGeometry& geometry);

  /// As-if-freshly-constructed, reusing shadow/per-set storage
  /// (ExperimentContext reuse seam).
  void reset(std::uint32_t shadow_capacity, const CacheGeometry& geometry);

  /// Let a companion tracker ride the shadow: entries inserted via the
  /// aux-carrying on_eviction overload keep their payload until the erase
  /// that removes them hands it back through on_demand_miss.
  void enable_shadow_aux();

  /// Feed every L2 eviction here. The two-argument overload attaches `aux`
  /// to the shadow entry when the eviction shadows its victim (requires
  /// enable_shadow_aux()); classification is identical in both.
  void on_eviction(const Eviction& ev) { on_eviction_impl(ev, nullptr); }
  void on_eviction(const Eviction& ev, const ShadowAux& aux) {
    on_eviction_impl(ev, &aux);
  }

  /// Feed every *demand* L2 totally-miss here. Returns true when the miss is
  /// attributed to case-1 pollution (the line was recently displaced by a
  /// prefetch fill); `aux_out` then receives the confirmed entry's payload.
  bool on_demand_miss(LineAddr line, ShadowAux* aux_out = nullptr) {
    if (!shadow_.erase(line, aux_out)) return false;
    ++stats_.case1_reuse_displaced;
    attribute(line);
    return true;
  }

  [[nodiscard]] const PollutionStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t shadow_size() const noexcept { return shadow_.size(); }

  /// Pollution events attributed to `set`.
  [[nodiscard]] std::uint64_t set_pollution(std::uint64_t set) const;
  /// set -> pollution events, indexed by set number (the provenance
  /// heatmap snapshots this directly).
  [[nodiscard]] const std::vector<std::uint64_t>& per_set() const noexcept {
    return per_set_;
  }
  /// The n worst-hit sets, ordered by descending event count; equal counts
  /// break ties by ascending set index, so heatmap artifacts are stable
  /// across platforms and standard-library sort implementations.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  top_polluted_sets(std::size_t n) const;
  /// Number of sets with at least one pollution event.
  [[nodiscard]] std::uint64_t polluted_set_count() const;

 private:
  // attribute and on_eviction_impl run per L2 eviction: defined inline.
  void attribute(LineAddr line) { ++per_set_[geometry_.set_of_line(line)]; }

  void on_eviction_impl(const Eviction& ev, const ShadowAux* aux) {
    ++stats_.total_evictions;
    const bool evictor_is_prefetch =
        ev.replaced_by_origin == FillOrigin::kHelper ||
        ev.replaced_by_origin == FillOrigin::kHardware;
    if (!evictor_is_prefetch) {
      // Demand fills can also displace useful data; that is ordinary
      // capacity/conflict behaviour, not prefetch pollution. Drop any stale
      // shadow for the victim so a later re-miss is not misattributed.
      shadow_.erase(ev.victim.line);
      return;
    }
    ++stats_.prefetch_caused_evictions;

    const bool victim_unused_prefetch =
        !ev.victim.used_since_fill && ev.victim.origin != FillOrigin::kDemand;
    if (victim_unused_prefetch) {
      if (ev.victim.origin == FillOrigin::kHelper) {
        ++stats_.case2_helper_displaced;
      } else {
        ++stats_.case3_hw_displaced;
      }
      attribute(ev.victim.line);
      return;
    }

    // Victim was useful data (demand-filled, or a prefetch the processor had
    // already consumed). Whether it "will be reused" is only known when a
    // later demand miss returns for it — shadow it.
    LineAddr dropped = 0;
    if (shadow_order_.push(ev.victim.line, &dropped)) {
      shadow_.erase(dropped);
    }
    shadow_.insert_or_assign(ev.victim.line, ev.replaced_by_origin, aux);
  }

  CacheGeometry geometry_;
  PollutionStats stats_;
  /// FIFO of shadowed lines bounding the shadow table.
  RingBuffer<LineAddr> shadow_order_;
  /// line -> origin of the fill that evicted it.
  ShadowTable shadow_;
  /// set -> pollution events (all three cases).
  std::vector<std::uint64_t> per_set_;
};

}  // namespace spf
