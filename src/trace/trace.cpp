#include "spf/trace/trace.hpp"

#include <algorithm>
#include <atomic>

#include "spf/common/assert.hpp"

namespace spf {

namespace trace_hooks {
namespace {
std::atomic<std::uint64_t> g_record_allocations{0};
}  // namespace

std::uint64_t record_allocations() noexcept {
  return g_record_allocations.load(std::memory_order_relaxed);
}

namespace detail {
void note_record_allocation() noexcept {
  g_record_allocations.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail
}  // namespace trace_hooks

std::uint32_t TraceBuffer::outer_iterations() const noexcept {
  std::uint32_t max_iter = 0;
  bool any = false;
  for (const TraceRecord& r : records_) {
    max_iter = std::max(max_iter, r.outer_iter);
    any = true;
  }
  return any ? max_iter + 1 : 0;
}

}  // namespace spf
