#include "spf/profile/calr.hpp"

#include <sstream>

#include "spf/cache/cache.hpp"
#include "spf/cache/lru_stack.hpp"

namespace spf {

std::string CalrEstimate::to_string() const {
  std::ostringstream out;
  out << "CALR=" << calr << " (compute=" << compute_cycles
      << " access=" << access_cycles << " l1_hits=" << l1_hits
      << " l2_hits=" << l2_hits << " l2_misses=" << l2_misses << ")";
  return out.str();
}

CalrEstimate estimate_calr(const TraceBuffer& trace, const CalrConfig& config) {
  CalrEstimate est;
  LruStack l1(config.l1);  // references fill on a miss
  Cache l2(config.l2, ReplacementKind::kLru);

  for (const TraceRecord& r : trace) {
    est.compute_cycles += r.compute_gap;
    if (r.kind() == AccessKind::kPrefetch) continue;  // helper-only traffic

    const LineAddr l1_line = config.l1.line_of(r.addr);
    const LineAddr l2_line = config.l2.line_of(r.addr);
    if (l1.access(l1_line)) {
      ++est.l1_hits;
      est.access_cycles += config.l1_latency;
      continue;
    }
    if (l2.access(l2_line, r.kind(), 0)) {
      ++est.l2_hits;
      est.access_cycles += config.l2_latency;
    } else {
      ++est.l2_misses;
      est.access_cycles += config.memory_latency;
      l2.fill(l2_line, FillOrigin::kDemand, 0, 0);
    }
  }

  est.calr = est.access_cycles
                 ? static_cast<double>(est.compute_cycles) /
                       static_cast<double>(est.access_cycles)
                 : 0.0;
  return est;
}

}  // namespace spf
