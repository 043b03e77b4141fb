#include "spf/sim/l1_hits.hpp"

#include "spf/cache/lru_stack.hpp"

namespace spf {

L1HitBitmap L1HitBitmap::compute(const TraceBuffer& trace,
                                 const CacheGeometry& l1) {
  L1HitBitmap bitmap;
  bitmap.l1_ = l1;
  bitmap.records_ = trace.size();
  bitmap.words_.assign((trace.size() + 63) / 64, 0);
  LruStack cache(l1);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceRecord& r = trace[i];
    if (r.kind() == AccessKind::kPrefetch) continue;
    if (cache.access(l1.line_of(r.addr))) {
      bitmap.words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  return bitmap;
}

}  // namespace spf
