#include "spf/profile/set_affinity.hpp"

#include <algorithm>
#include <sstream>

#include "spf/common/assert.hpp"

namespace spf {

std::uint32_t SetAffinityResult::min_sa() const {
  SPF_ASSERT(!samples.empty(), "no set saturated");
  return *std::min_element(samples.begin(), samples.end());
}

std::uint32_t SetAffinityResult::max_sa() const {
  SPF_ASSERT(!samples.empty(), "no set saturated");
  return *std::max_element(samples.begin(), samples.end());
}

double SetAffinityResult::quantile(double q) const {
  SPF_ASSERT(!samples.empty(), "no set saturated");
  std::vector<std::uint32_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[rank];
}

std::string SetAffinityResult::to_string() const {
  std::ostringstream out;
  out << "SA{touched_sets=" << touched_sets << " saturated=" << per_set.size()
      << " accesses=" << accesses << " outer_iters=" << outer_iterations;
  if (!samples.empty()) {
    out << " range=[" << min_sa() << ", " << max_sa() << "]"
        << " median=" << quantile(0.5);
  }
  out << "}";
  return out.str();
}

SetAffinityAnalyzer::SetAffinityAnalyzer(const CacheGeometry& geometry)
    : geometry_(geometry),
      sets_(geometry.num_sets()),
      blocks_(geometry.num_sets() * geometry.ways()) {}

std::uint32_t SetAffinityAnalyzer::observe(Addr addr,
                                           std::uint32_t outer_iter) {
  ++result_.accesses;
  result_.outer_iterations = std::max(result_.outer_iterations, outer_iter + 1);

  const LineAddr line = geometry_.line_of(addr);
  const std::uint64_t set = geometry_.set_of_line(line);
  SetState& state = sets_[set];
  if (!state.touched) {
    state.touched = true;
    touched_.push_back(set);
  }

  if (state.saturated) return 0;

  // Figure 3: only *new* distinct blocks advance the set's count.
  LineAddr* row = &blocks_[set * geometry_.ways()];
  if (std::find(row, row + state.count, line) != row + state.count) return 0;
  row[state.count++] = line;
  if (state.count < geometry_.ways()) return 0;

  // The iteration count is 1-based, measured from the loop start.
  const std::uint32_t sa = outer_iter + 1;
  state.saturated = true;
  result_.samples.push_back(sa);
  result_.per_set.emplace(set, sa);
  return sa;
}

SetAffinityResult SetAffinityAnalyzer::finish() {
  result_.touched_sets = touched_.size();
  for (const std::uint64_t set : touched_) sets_[set] = SetState{};
  touched_.clear();
  SetAffinityResult out = std::move(result_);
  result_ = SetAffinityResult{};
  return out;
}

SetAffinityResult SetAffinityAnalyzer::analyze(const TraceBuffer& trace,
                                               const CacheGeometry& geometry) {
  SetAffinityAnalyzer analyzer(geometry);
  for (const TraceRecord& r : trace) analyzer.observe(r.addr, r.outer_iter);
  return analyzer.finish();
}

}  // namespace spf
