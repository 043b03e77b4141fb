#include "spf/sim/pollution.hpp"

#include <algorithm>
#include <sstream>

namespace spf {

std::string PollutionStats::to_string() const {
  std::ostringstream out;
  out << "pollution{case1=" << case1_reuse_displaced
      << " case2=" << case2_helper_displaced
      << " case3=" << case3_hw_displaced
      << " prefetch_evictions=" << prefetch_caused_evictions
      << " total_evictions=" << total_evictions << "}";
  return out.str();
}

namespace {

std::size_t shadow_slot_count(std::uint32_t capacity) {
  // The ring bounds live entries to `capacity`; keep the table at most
  // half-full so linear probe chains stay short.
  std::size_t n = 16;
  while (n < 2 * static_cast<std::size_t>(capacity)) n *= 2;
  return n;
}

}  // namespace

ShadowTable::ShadowTable(std::uint32_t capacity)
    : slots_(shadow_slot_count(capacity)),
      mask_(slots_.size() - 1) {}

void ShadowTable::reset(std::uint32_t capacity) {
  slots_.assign(shadow_slot_count(capacity), Slot{});
  mask_ = slots_.size() - 1;
  size_ = 0;
  // Disabled until enable_aux() runs again; capacity is kept so a pooled
  // provenance-on context re-enables without reallocating.
  aux_.clear();
}

void ShadowTable::enable_aux() {
  aux_.assign(slots_.size(), ShadowAux{});
}

PollutionTracker::PollutionTracker(std::uint32_t shadow_capacity,
                                   const CacheGeometry& geometry)
    : geometry_(geometry), shadow_order_(shadow_capacity),
      shadow_(shadow_capacity), per_set_(geometry.num_sets(), 0) {}

void PollutionTracker::reset(std::uint32_t shadow_capacity,
                             const CacheGeometry& geometry) {
  geometry_ = geometry;
  stats_ = PollutionStats{};
  shadow_order_.reset(shadow_capacity);
  shadow_.reset(shadow_capacity);
  per_set_.assign(geometry.num_sets(), 0);
}

std::uint64_t PollutionTracker::set_pollution(std::uint64_t set) const {
  return set < per_set_.size() ? per_set_[set] : 0;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
PollutionTracker::top_polluted_sets(std::size_t n) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sets;
  for (std::uint64_t s = 0; s < per_set_.size(); ++s) {
    if (per_set_[s] > 0) sets.emplace_back(s, per_set_[s]);
  }
  std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (sets.size() > n) sets.resize(n);
  return sets;
}

std::uint64_t PollutionTracker::polluted_set_count() const {
  std::uint64_t n = 0;
  for (std::uint64_t c : per_set_) n += c > 0;
  return n;
}

void PollutionTracker::enable_shadow_aux() { shadow_.enable_aux(); }

}  // namespace spf
