// Set-associative cache model with per-line provenance metadata.
//
// The cache is a *state* model, not a timing model: lookup/fill/evict are
// immediate. Timing (miss latency, MSHR occupancy, bandwidth) is layered on
// by spf_mshr/spf_memsys/spf_sim. Keeping state and timing separate lets the
// Set Affinity profiler reuse the state model stand-alone.
//
// Every line remembers who filled it (FillOrigin) and whether a demand access
// touched it since the fill — exactly the metadata the paper's three cache
// pollution cases are defined over.
//
// Hot-path layout: all per-line state is structure-of-arrays, row-major by
// (set, way) — a packed full-tag array, a 16-bit partial-tag array, one
// metadata byte per slot (origin, used, dirty) and a per-set validity
// bitmask. A lookup touches only the partial-tag row of one set plus, on a
// candidate match, one full tag; a hit then reads and writes one metadata
// byte. `CacheLine` is a value assembled from those arrays only where a
// caller asks for a whole line: `probe()`, `for_each_line()` and the victim
// of an `Eviction`.
//
// Tag match is vectorized where the ISA allows: the set's partial-tag row
// (the low 16 bits of each tag, padded to a multiple of 8 keys) is compared
// 8 keys per SSE2 instruction into a match bitmask, ANDed with the set's
// validity bitmask, and each candidate way — lowest first — is verified
// against its full tag. Partial tags only filter: a collision costs one more
// full-tag compare, never a wrong hit, and the lowest-way-wins order of the
// scalar scan is kept, so artifacts stay byte-identical. `SPF_NO_SIMD`
// disables the vector path at compile time; setting the
// `SPF_FORCE_SCALAR_TAGS` environment variable (any value) disables it at
// run time so CI can exercise the scalar full-tag scan on SIMD hardware.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "spf/cache/replacement.hpp"
#include "spf/common/arena.hpp"
#include "spf/common/assert.hpp"
#include "spf/common/simd_match.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/mem/types.hpp"

namespace spf {

namespace cache_detail {

constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

/// Reference scan: walk the set's validity bits low-to-high and compare tags
/// one at a time. First (lowest-way) match wins.
inline std::uint32_t find_way_scalar(const LineAddr* tags,
                                     std::uint64_t valid_mask,
                                     LineAddr line) noexcept {
  std::uint64_t m = valid_mask;
  while (m != 0) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
    if (tags[w] == line) return w;
    m &= m - 1;
  }
  return kNoWay;
}

}  // namespace cache_detail

/// Snapshot of one valid cache line's metadata (assembled on demand from the
/// cache's per-slot arrays; see the layout note above).
struct CacheLine {
  LineAddr line = 0;
  bool valid = false;
  bool dirty = false;
  /// Who caused this line's fill.
  FillOrigin origin = FillOrigin::kDemand;
  /// True once a demand (non-prefetch) access hits the line after its fill.
  bool used_since_fill = false;
};

/// A line pushed out by a fill, annotated with its end-of-life metadata.
struct Eviction {
  CacheLine victim;
  /// Line whose fill displaced the victim.
  LineAddr replaced_by = 0;
  FillOrigin replaced_by_origin = FillOrigin::kDemand;
  Cycle when = 0;
  /// Row-major (set * ways + way) slot the victim occupied — the same slot
  /// the displacing line installs into. Provenance resolves the victim's
  /// record and links the displacing fill through this index.
  std::uint32_t slot = 0;
};

/// Aggregate counters. Hit/miss here are *state* hits (line valid), i.e. the
/// paper's "totally" classification before MSHR effects are applied.
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t fills = 0;
  std::uint64_t evictions = 0;
  /// Evictions whose victim was an unused prefetch, split by the victim's
  /// origin (paper pollution cases 2 and 3 raw material).
  std::uint64_t evicted_unused_helper = 0;
  std::uint64_t evicted_unused_hw = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
};

class Cache {
 public:
  /// Sentinel for "no (set, way) slot" in the slot-reporting interfaces
  /// below. Slots index the row-major per-line arrays: set * ways + way.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// Seed of the Random policy's generator (ignored by the others); the
  /// simulator's L2 always uses it.
  static constexpr std::uint64_t kDefaultSeed = 0x5eed;

  /// `arena`, when non-null, backs the per-line and validity arrays; it must
  /// outlive the cache (and every cache moved from it). Null keeps the
  /// global heap.
  Cache(const CacheGeometry& geometry, ReplacementKind policy,
        std::uint64_t seed = kDefaultSeed, Arena* arena = nullptr);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  // All state is value-semantic (vectors + the replacement variant), so the
  // defaulted moves are sound: the moved-from cache is empty but destructible,
  // and can be reassigned a fresh Cache before reuse.
  Cache(Cache&&) = default;
  Cache& operator=(Cache&&) = default;

  /// Reinitialize in place to a cold cache of the given shape, as if freshly
  /// constructed — but reusing existing storage capacity where the new shape
  /// fits (same-geometry resets allocate nothing). This is the seam
  /// ExperimentContext uses to replay many configurations without per-run
  /// construction.
  void reset_to(const CacheGeometry& geometry, ReplacementKind policy,
                std::uint64_t seed = kDefaultSeed);

  [[nodiscard]] const CacheGeometry& geometry() const noexcept { return geometry_; }
  [[nodiscard]] ReplacementKind policy() const noexcept { return policy_.kind(); }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }

  /// Side-effect-free lookup: returns a snapshot of the line if present,
  /// without touching replacement state or counters.
  [[nodiscard]] std::optional<CacheLine> probe(LineAddr line) const noexcept {
    const std::uint64_t set = geometry_.set_of_line(line);
    const std::uint32_t way = find_way(set, line);
    if (way == kNoWay) return std::nullopt;
    return line_at(set * geometry_.ways() + way);
  }

  /// Side-effect-free presence check (probe() without building the line).
  [[nodiscard]] bool contains(LineAddr line) const noexcept {
    return find_way(geometry_.set_of_line(line), line) != kNoWay;
  }

  /// Reference the line. On a hit: updates replacement state, marks the line
  /// used (for demand kinds), sets dirty on writes, and returns true. On a
  /// miss: counts it and returns false (caller decides whether/when to fill).
  SPF_ALWAYS_INLINE bool access(LineAddr line, AccessKind kind, Cycle now) {
    std::uint32_t unused;
    return access(line, kind, now, unused);
  }

  /// access() that additionally reports the line's slot when this reference
  /// was the *first demand use of a prefetch-origin line* (kNoSlot
  /// otherwise) — read from the line's metadata in the same tag scan, before
  /// the hit marks it used. The provenance hot path keys its slot-indexed
  /// records off this instead of a probe()+access() pair, which would scan
  /// the set's tags twice per demand lookup.
  SPF_ALWAYS_INLINE bool access(LineAddr line, AccessKind kind, Cycle /*now*/,
                                std::uint32_t& first_use_slot) {
    first_use_slot = kNoSlot;
    ++stats_.lookups;
    const std::uint64_t set = geometry_.set_of_line(line);
    const std::uint32_t way = find_way(set, line);
    if (way == kNoWay) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    policy_.on_hit(set, way);
    const std::size_t slot = set * geometry_.ways() + way;
    std::uint8_t& meta = meta_[slot];
    if (kind != AccessKind::kPrefetch) {
      if ((meta & kUsedBit) == 0 && (meta & kOriginBits) != 0) {
        first_use_slot = static_cast<std::uint32_t>(slot);
      }
      meta |= kUsedBit;
    }
    if (kind == AccessKind::kWrite) meta |= kDirtyBit;
    return true;
  }

  /// Install `line`. If the set is full, evicts a victim and returns its
  /// metadata. Filling a line that is already present just refreshes its
  /// metadata (this happens when a prefetch completes after a demand fill
  /// already installed the line). `slot_out`, when non-null, receives the
  /// slot the line occupies after the call (provenance keys its records by
  /// slot).
  std::optional<Eviction> fill(LineAddr line, FillOrigin origin, CoreId core,
                               Cycle now, std::uint32_t* slot_out = nullptr);

  /// fill() minus the already-present probe, for callers that know the line
  /// is absent: the simulator's L2 installs (a line with an outstanding MSHR
  /// entry is never resident; see docs/simulator.md). Precondition: `line`
  /// is not present. Inline: it runs on every L2 install.
  std::optional<Eviction> fill_absent(LineAddr line, FillOrigin origin,
                                      CoreId /*core*/, Cycle now,
                                      std::uint32_t* slot_out = nullptr) {
    const std::uint64_t set = geometry_.set_of_line(line);
    const std::size_t base = set * geometry_.ways();
    SPF_DEBUG_ASSERT(find_way(set, line) == kNoWay,
                     "fill_absent on a present line");

    ++stats_.fills;
    const std::uint64_t full_mask =
        geometry_.ways() == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << geometry_.ways()) - 1;
    const std::uint64_t free_mask = ~valid_[set] & full_mask;

    std::optional<Eviction> evicted;
    std::uint32_t way;
    if (free_mask != 0) {
      // Lowest invalid way first.
      way = static_cast<std::uint32_t>(std::countr_zero(free_mask));
    } else {
      way = policy_.victim(set);
      SPF_DEBUG_ASSERT(way < geometry_.ways(), "policy returned bad way");
      const std::size_t victim_slot = base + way;
      const std::uint8_t victim_meta = meta_[victim_slot];
      ++stats_.evictions;
      if ((victim_meta & kUsedBit) == 0) {
        const auto victim_origin =
            static_cast<FillOrigin>(victim_meta & kOriginBits);
        if (victim_origin == FillOrigin::kHelper) ++stats_.evicted_unused_helper;
        if (victim_origin == FillOrigin::kHardware) ++stats_.evicted_unused_hw;
      }
      evicted = Eviction{line_at(victim_slot), line, origin, now,
                         static_cast<std::uint32_t>(victim_slot)};
    }

    const std::size_t slot = base + way;
    if (slot_out != nullptr) *slot_out = static_cast<std::uint32_t>(slot);
    tags_[slot] = line;
    ptags_[set * ptag_stride_ + way] = partial_tag(line);
    meta_[slot] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(origin) |
        (origin == FillOrigin::kDemand ? kUsedBit : 0));
    valid_[set] |= std::uint64_t{1} << way;
    policy_.on_fill(set, way);
    return evicted;
  }

  /// Set the dirty bit of the line in `slot` without touching replacement
  /// state (write-allocate installs mark the slot their fill reported).
  /// Precondition: `slot` holds a valid line.
  void mark_dirty_slot(std::uint32_t slot) noexcept {
    SPF_DEBUG_ASSERT(
        slot < meta_.size() &&
            ((valid_[slot / geometry_.ways()] >> (slot % geometry_.ways())) & 1),
        "mark_dirty_slot on an empty slot");
    meta_[slot] |= kDirtyBit;
  }

  /// Number of valid lines currently in `set`.
  [[nodiscard]] std::uint32_t set_occupancy(std::uint64_t set) const;

  /// Visit every valid line (diagnostics / inspectors), in row-major
  /// (set, way) order. Templated so visitors inline — no std::function
  /// type erasure on snapshot paths.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    for (std::uint64_t set = 0; set < valid_.size(); ++set) {
      for (std::uint64_t m = valid_[set]; m != 0; m &= m - 1) {
        fn(line_at(set * geometry_.ways() +
                   static_cast<std::uint32_t>(std::countr_zero(m))));
      }
    }
  }

 private:
  static constexpr std::uint32_t kNoWay = cache_detail::kNoWay;
  // Per-slot metadata byte: the FillOrigin value in the low two bits, then
  // the used-since-fill and dirty flags.
  static constexpr std::uint8_t kOriginBits = 0x3;
  static constexpr std::uint8_t kUsedBit = 0x4;
  static constexpr std::uint8_t kDirtyBit = 0x8;

  template <typename T>
  using ArenaVec = std::vector<T, ArenaAllocator<T>>;

  /// Low 16 bits of the line's tag: the lookup filter key.
  [[nodiscard]] std::uint16_t partial_tag(LineAddr line) const noexcept {
    return static_cast<std::uint16_t>(geometry_.tag_of_line(line));
  }

  /// Assembles the line in (valid) slot `slot` from the per-slot arrays.
  [[nodiscard]] CacheLine line_at(std::size_t slot) const noexcept {
    const std::uint8_t meta = meta_[slot];
    return CacheLine{.line = tags_[slot],
                     .valid = true,
                     .dirty = (meta & kDirtyBit) != 0,
                     .origin = static_cast<FillOrigin>(meta & kOriginBits),
                     .used_since_fill = (meta & kUsedBit) != 0};
  }

  /// Way holding `line` in `set`, or kNoWay. The vector path filters the
  /// set's partial-tag row, then verifies candidate ways lowest first against
  /// the full tags; the scalar path scans the full tags directly. Both keep
  /// lowest-way-wins order.
  [[nodiscard]] std::uint32_t find_way(std::uint64_t set,
                                       LineAddr line) const noexcept {
    const LineAddr* tags = &tags_[set * geometry_.ways()];
#ifdef SPF_SIMD_MATCH
    if (!simd::force_scalar) {
      std::uint64_t m = simd::match_mask_u16(&ptags_[set * ptag_stride_],
                                             ptag_stride_, partial_tag(line)) &
                        valid_[set];
      for (; m != 0; m &= m - 1) {
        const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
        if (tags[w] == line) return w;
      }
      return kNoWay;
    }
#endif
    return cache_detail::find_way_scalar(tags, valid_[set], line);
  }

  CacheGeometry geometry_;
  ReplacementState policy_;
  /// Partial-tag row length: ways rounded up to a multiple of 8 so the
  /// vector compare never reads past a row (padding keys are masked off by
  /// the validity bitmask).
  std::uint32_t ptag_stride_;
  ArenaVec<LineAddr> tags_;        // num_sets * ways, row-major by set
  ArenaVec<std::uint16_t> ptags_;  // num_sets * ptag_stride_
  ArenaVec<std::uint8_t> meta_;    // num_sets * ways: origin | used | dirty
  ArenaVec<std::uint64_t> valid_;  // per-set validity bitmask (ways <= 64)
  CacheStats stats_;
};

}  // namespace spf
