#include "spf/cache/cache.hpp"

#include <bit>

#include "spf/common/assert.hpp"

namespace spf {
namespace {

std::uint32_t ptag_stride_for(const CacheGeometry& geometry) {
  SPF_ASSERT(geometry.ways() <= 64, "validity bitmask holds at most 64 ways");
  return (geometry.ways() + 7) & ~std::uint32_t{7};
}

}  // namespace

Cache::Cache(const CacheGeometry& geometry, ReplacementKind policy,
             std::uint64_t seed, Arena* arena)
    : geometry_(geometry),
      policy_(policy, geometry.num_sets(), geometry.ways(), seed),
      ptag_stride_(ptag_stride_for(geometry)),
      tags_(geometry.num_sets() * geometry.ways(), 0,
            ArenaAllocator<LineAddr>(arena)),
      ptags_(geometry.num_sets() * ptag_stride_, 0,
             ArenaAllocator<std::uint16_t>(arena)),
      meta_(geometry.num_sets() * geometry.ways(), 0,
            ArenaAllocator<std::uint8_t>(arena)),
      valid_(geometry.num_sets(), 0, ArenaAllocator<std::uint64_t>(arena)) {}

void Cache::reset_to(const CacheGeometry& geometry, ReplacementKind policy,
                     std::uint64_t seed) {
  const std::size_t total = geometry.num_sets() * geometry.ways();
  ptag_stride_ = ptag_stride_for(geometry);
  geometry_ = geometry;
  policy_.reset_to(policy, geometry.num_sets(), geometry.ways(), seed);
  // assign() reuses capacity; a same-shape reset touches no allocator at all
  // (arena or heap), which is what makes pooled ExperimentContext reuse pay.
  tags_.assign(total, 0);
  ptags_.assign(geometry.num_sets() * ptag_stride_, 0);
  meta_.assign(total, 0);
  valid_.assign(geometry.num_sets(), 0);
  stats_ = CacheStats{};
}

std::optional<Eviction> Cache::fill(LineAddr line, FillOrigin origin,
                                    CoreId core, Cycle now,
                                    std::uint32_t* slot_out) {
  const std::uint64_t set = geometry_.set_of_line(line);
  const std::size_t base = set * geometry_.ways();

  // Refresh in place if the line already landed (racing fills): promote its
  // recency like a hit would.
  if (const std::uint32_t present = find_way(set, line); present != kNoWay) {
    policy_.on_hit(set, present);
    if (slot_out != nullptr) {
      *slot_out = static_cast<std::uint32_t>(base + present);
    }
    // A demand fill upgrades a prefetch-origin line: the processor now
    // genuinely wants it. A prefetch completing onto a demand-filled line
    // must not *downgrade* provenance.
    if (origin == FillOrigin::kDemand) meta_[base + present] |= kUsedBit;
    return std::nullopt;
  }

  return fill_absent(line, origin, core, now, slot_out);
}

bool Cache::invalidate(LineAddr line) {
  const std::uint64_t set = geometry_.set_of_line(line);
  const std::uint32_t way = find_way(set, line);
  if (way == kNoWay) return false;
  const std::size_t idx = set * geometry_.ways() + way;
  tags_[idx] = 0;
  ptags_[set * ptag_stride_ + way] = 0;
  meta_[idx] = 0;
  valid_[set] &= ~(std::uint64_t{1} << way);
  return true;
}

std::uint32_t Cache::set_occupancy(std::uint64_t set) const {
  SPF_ASSERT(set < geometry_.num_sets(), "set index out of range");
  return static_cast<std::uint32_t>(std::popcount(valid_[set]));
}

}  // namespace spf
