#include "spf/mshr/mshr.hpp"

#include <algorithm>
#include <limits>

#include "spf/common/assert.hpp"

namespace spf {

MshrFile::MshrFile(std::size_t capacity) : capacity_(capacity) {
  SPF_ASSERT(capacity > 0, "MSHR file needs positive capacity");
  entries_.reserve(capacity);
  lines_.reserve(capacity);
}

const MshrEntry* MshrFile::allocate(LineAddr line, Cycle issue, Cycle fill,
                                    FillOrigin origin, CoreId core) {
  SPF_DEBUG_ASSERT(find(line) == nullptr, "duplicate MSHR allocation");
  SPF_DEBUG_ASSERT(fill >= issue, "fill before issue");
  if (full()) {
    ++stats_.full_rejections;
    return nullptr;
  }
  // Insert after every entry filling no later: keeps (fill_time, allocation
  // order). The loop does not run when fill times arrive non-decreasing.
  std::size_t at = entries_.size();
  while (at > 0 && entries_[at - 1].fill_time > fill) --at;
  const auto pos = static_cast<std::ptrdiff_t>(at);
  entries_.insert(entries_.begin() + pos,
                  MshrEntry{.line = line,
                            .issue_time = issue,
                            .fill_time = fill,
                            .origin = origin,
                            .core = core});
  lines_.insert(lines_.begin() + pos, line);
  next_completion_ = entries_.front().fill_time;
  ++stats_.allocations;
  stats_.peak_occupancy = std::max<std::uint64_t>(stats_.peak_occupancy,
                                                  entries_.size());
  return &entries_[at];
}

const MshrEntry& MshrFile::merge(LineAddr line, bool demand_requester) {
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

void MshrFile::mark_write(LineAddr line) {
  if (MshrEntry* e = find_mut(line)) e->write = true;
}

std::vector<MshrEntry> MshrFile::drain_completed(Cycle now) {
  std::vector<MshrEntry> done;
  drain_completed_into(now, done);
  return done;
}

void MshrFile::drain_completed_into(Cycle now, std::vector<MshrEntry>& out) {
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

}  // namespace spf
