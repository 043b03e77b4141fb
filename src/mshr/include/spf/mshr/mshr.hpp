// Miss Status Holding Register file.
//
// Tracks cache fills that have been *issued* but not yet *serviced*. This is
// the structure that realizes the paper's access taxonomy (§V.B):
//
//   totally hit   — line valid in the cache at access time;
//   partially hit — "the demanded data arrive in cache after its memory
//                    request is issued but before its memory request is
//                    serviced": the access merges into an outstanding MSHR
//                    and waits only the residual latency;
//   totally miss  — no line, no outstanding request: full memory round trip.
//
// Capacity is finite (real L2s have 10-32 MSHRs). When full, demand misses
// stall until an entry frees; prefetches are simply dropped, which is also
// what real prefetchers do under MSHR pressure.
//
// Entries are kept sorted by fill time, ties in allocation order. The memory
// channel's start times never decrease, so an allocation is an append in
// practice, and a drain pops a prefix that is already in completion order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "spf/common/assert.hpp"
#include "spf/common/simd_match.hpp"
#include "spf/mem/types.hpp"

namespace spf {

struct MshrEntry {
  LineAddr line = 0;
  /// When the original miss was issued to memory.
  Cycle issue_time = 0;
  /// When the fill completes (data usable).
  Cycle fill_time = 0;
  /// Origin of the *first* requester (determines the fill's provenance tag).
  FillOrigin origin = FillOrigin::kDemand;
  CoreId core = 0;
  /// Number of later requests that merged into this entry.
  std::uint32_t merged = 0;
  /// True once a demand request merged into a prefetch-initiated entry; the
  /// fill is then accounted as wanted-by-processor.
  bool demand_merged = false;
  /// True when any requester was a store: the line installs dirty
  /// (write-allocate) and will be written back on eviction.
  bool write = false;
};

struct MshrStats {
  std::uint64_t allocations = 0;
  std::uint64_t merges = 0;
  std::uint64_t demand_merges_into_prefetch = 0;
  std::uint64_t full_rejections = 0;
  std::uint64_t peak_occupancy = 0;
};

class MshrFile {
 public:
  explicit MshrFile(std::size_t capacity);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool full() const noexcept { return entries_.size() >= capacity_; }
  [[nodiscard]] const MshrStats& stats() const noexcept { return stats_; }

  /// Outstanding entry for `line`, or nullptr. Inline: the file is tiny
  /// (<=32 entries) and this runs once per L2-visible access. The scan runs
  /// over `lines_`, a packed mirror of entries_[i].line, vector-compared
  /// where the ISA allows (lines are unique, so any match order agrees).
  [[nodiscard]] const MshrEntry* find(LineAddr line) const noexcept {
    const std::size_t i = index_of(line);
    return i == kNotFound ? nullptr : &entries_[i];
  }

  /// Outstanding lines, in completion order (a packed mirror of the
  /// entries' lines).
  [[nodiscard]] std::span<const LineAddr> lines() const noexcept {
    return lines_;
  }

  // allocate, merge, mark_write and drain_completed_into run on the
  // simulator's per-access path, so they are defined inline below.

  /// Allocate a new entry. Returns nullptr when the file is full (counted as
  /// a rejection; the caller decides whether to stall or drop).
  const MshrEntry* allocate(LineAddr line, Cycle issue, Cycle fill,
                            FillOrigin origin, CoreId core) {
    SPF_DEBUG_ASSERT(find(line) == nullptr, "duplicate MSHR allocation");
    SPF_DEBUG_ASSERT(fill >= issue, "fill before issue");
    if (full()) {
      ++stats_.full_rejections;
      return nullptr;
    }
    // Insert after every entry filling no later: keeps (fill_time,
    // allocation order). Fill times almost always arrive non-decreasing, so
    // the entry is appended.
    const MshrEntry entry{.line = line,
                          .issue_time = issue,
                          .fill_time = fill,
                          .origin = origin,
                          .core = core};
    std::size_t at = entries_.size();
    while (at > 0 && entries_[at - 1].fill_time > fill) --at;
    if (at == entries_.size()) {
      entries_.push_back(entry);
      lines_.push_back(line);
    } else {
      const auto pos = static_cast<std::ptrdiff_t>(at);
      entries_.insert(entries_.begin() + pos, entry);
      lines_.insert(lines_.begin() + pos, line);
    }
    next_completion_ = entries_.front().fill_time;
    ++stats_.allocations;
    stats_.peak_occupancy =
        std::max<std::uint64_t>(stats_.peak_occupancy, entries_.size());
    return &entries_[at];
  }

  /// Merge a secondary request into the outstanding entry for `line`.
  /// `demand_requester` must be true only for accesses by a main computation
  /// thread that are not prefetch instructions — only those upgrade a
  /// prefetch-initiated fill to wanted-by-processor. Pre: find(line) !=
  /// nullptr. Returns the (updated) entry.
  const MshrEntry& merge(LineAddr line, bool demand_requester) {
    MshrEntry* e = find_mut(line);
    SPF_ASSERT(e != nullptr, "merge into missing MSHR entry");
    ++e->merged;
    ++stats_.merges;
    if (demand_requester && e->origin != FillOrigin::kDemand &&
        !e->demand_merged) {
      e->demand_merged = true;
      ++stats_.demand_merges_into_prefetch;
    }
    return *e;
  }

  /// Record that a store targets the outstanding line (write-allocate).
  /// No-op if the line has no entry.
  void mark_write(LineAddr line) {
    if (MshrEntry* e = find_mut(line)) e->write = true;
  }

  /// Earliest outstanding completion time; Cycle max when empty. O(1): the
  /// fill time of the first (sorted) entry, cached because the simulator
  /// polls this once per access and drains far less often.
  [[nodiscard]] Cycle next_completion() const noexcept {
    return next_completion_;
  }

  /// Remove and return every entry with fill_time <= now, in completion
  /// order — ties in allocation order (callers install the fills into the
  /// cache).
  std::vector<MshrEntry> drain_completed(Cycle now);

  /// Allocation-free variant for the simulator hot path: clears `out` and
  /// fills it with the completed entries in completion order.
  void drain_completed_into(Cycle now, std::vector<MshrEntry>& out) {
    // Completed entries are a prefix of the sorted file.
    std::size_t done = 0;
    while (done < entries_.size() && entries_[done].fill_time <= now) ++done;
    const auto end = static_cast<std::ptrdiff_t>(done);
    out.assign(entries_.begin(), entries_.begin() + end);
    entries_.erase(entries_.begin(), entries_.begin() + end);
    lines_.erase(lines_.begin(), lines_.begin() + end);
    next_completion_ = entries_.empty() ? std::numeric_limits<Cycle>::max()
                                        : entries_.front().fill_time;
  }

  void clear() noexcept {
    entries_.clear();
    lines_.clear();
    next_completion_ = std::numeric_limits<Cycle>::max();
  }

  /// As-if-freshly-constructed with `capacity`, reusing the entry vector's
  /// storage (ExperimentContext reuse seam).
  void reset(std::size_t capacity) noexcept {
    capacity_ = capacity;
    clear();
    stats_ = MshrStats{};
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  [[nodiscard]] std::size_t index_of(LineAddr line) const noexcept {
    const std::size_t n = lines_.size();
#ifdef SPF_SIMD_MATCH
    if (!simd::force_scalar && n <= 64) {  // mask is 64-bit; big files scan
      const std::uint64_t m =
          simd::match_mask_u64(lines_.data(), static_cast<std::uint32_t>(n),
                               line);
      return m != 0 ? static_cast<std::size_t>(std::countr_zero(m))
                    : kNotFound;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
      if (lines_[i] == line) return i;
    }
    return kNotFound;
  }

  [[nodiscard]] MshrEntry* find_mut(LineAddr line) noexcept {
    const std::size_t i = index_of(line);
    return i == kNotFound ? nullptr : &entries_[i];
  }

  std::size_t capacity_;
  // Small (<=32): linear scan wins. Sorted by (fill_time, allocation order).
  std::vector<MshrEntry> entries_;
  std::vector<LineAddr> lines_;     // packed mirror of entries_[i].line
  Cycle next_completion_ = std::numeric_limits<Cycle>::max();
  MshrStats stats_;
};

}  // namespace spf
