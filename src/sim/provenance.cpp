#include "spf/sim/provenance.hpp"

namespace spf {

ProvenanceTracker::ProvenanceTracker(std::size_t live_capacity)
    : flags_(live_capacity, 0), words_(live_capacity, 0) {
  resolved_.enabled = true;
}

void ProvenanceTracker::reset(std::size_t live_capacity) {
  demand_lookups_ = 0;
  next_gen_ = 0;
  resolved_ = ProvenanceSummary{};
  resolved_.enabled = true;
  flags_.assign(live_capacity, 0);
  // words_ entries are only read for slots whose kActive bit is set, and a
  // fill writes them before setting the bit — stale words are unreachable,
  // so resize without the clearing pass.
  words_.resize(live_capacity);
}

void ProvenanceTracker::resolve(std::uint32_t slot, bool evicted) {
  const std::uint8_t f = flags_[slot];
  if (f & kPolluting) {
    ++resolved_.polluting;
  } else if (f & kUsed) {
    ++resolved_.used_timely;
    resolved_.fill_to_use_total += clock_of(slot);
    ++resolved_.fill_to_use[ProvenanceSummary::bucket_of(clock_of(slot))];
  } else if (evicted) {
    ++resolved_.evicted_unused;
  } else {
    ++resolved_.resident_unused;
  }
}

void ProvenanceTracker::on_fill(std::uint32_t slot, FillOrigin raw_origin,
                                bool demand_merged) {
  if (raw_origin == FillOrigin::kDemand) return;
  ++resolved_.tracked_fills;
  if (raw_origin == FillOrigin::kHelper) {
    ++resolved_.helper_fills;
  } else {
    ++resolved_.hardware_fills;
  }
  if (demand_merged) {
    // The demand miss was already in flight when this prefetch completed:
    // the prefetch was too late to hide any latency. The line installs with
    // demand origin, so it is not tracked further.
    ++resolved_.used_late;
    return;
  }
  if (flags_[slot] & kActive) {
    // Defensive: the eviction that vacated this slot resolves its record
    // first (drain order), and the MSHR admits one in-flight fill per line —
    // so a live record should never be overwritten. Retire the stale record
    // as displaced rather than losing it.
    resolve(slot, /*evicted=*/true);
  }
  flags_[slot] = static_cast<std::uint8_t>(
      kActive | (raw_origin == FillOrigin::kHardware ? kHardware : 0));
  words_[slot] = pack(static_cast<std::uint32_t>(demand_lookups_),
                      static_cast<std::uint32_t>(next_gen_++));
}

void ProvenanceTracker::on_demand_hit(std::uint32_t slot) {
  const std::uint8_t f = flags_[slot];
  if (!(f & kActive) || (f & kUsed)) return;
  flags_[slot] = f | kUsed;
  // The clock field flips from fill-lookup to first-use distance; the
  // generation rides along untouched (a used fill can still turn polluting).
  words_[slot] = pack(static_cast<std::uint32_t>(demand_lookups_) - clock_of(slot),
                      gen_of(slot));
}

void ProvenanceTracker::on_confirmed_reuse(const ShadowAux& aux) {
  ++resolved_.reuse_confirms;
  ++resolved_.victim_reuse[ProvenanceSummary::bucket_of(
      static_cast<std::uint32_t>(demand_lookups_) - aux.evict_lookup)];
  const std::uint8_t f = flags_[aux.evictor_slot];
  if ((f & kActive) && gen_of(aux.evictor_slot) == aux.evictor_gen) {
    flags_[aux.evictor_slot] = f | kPolluting;
  } else {
    ++resolved_.late_pollution_confirms;
  }
}

ProvenanceSummary ProvenanceTracker::snapshot(
    const std::vector<std::uint64_t>& per_set_pollution) const {
  ProvenanceSummary out = resolved_;
  // Provisionally classify still-live fills so the fate counts partition the
  // tracked fills even mid-run (a paused adaptive run). A resident fill may
  // migrate between categories across snapshots; the partition holds at each.
  for (std::size_t slot = 0; slot < flags_.size(); ++slot) {
    const std::uint8_t f = flags_[slot];
    if (!(f & kActive)) continue;
    if (f & kPolluting) {
      ++out.polluting;
    } else if (f & kUsed) {
      ++out.used_timely;
      const std::uint64_t d = clock_of(static_cast<std::uint32_t>(slot));
      out.fill_to_use_total += d;
      ++out.fill_to_use[ProvenanceSummary::bucket_of(d)];
    } else {
      ++out.resident_unused;
    }
  }
  for (std::uint64_t count : per_set_pollution) {
    if (count == 0) continue;
    ++out.polluted_sets;
    ++out.set_heatmap[ProvenanceSummary::bucket_of(count)];
  }
  return out;
}

}  // namespace spf
