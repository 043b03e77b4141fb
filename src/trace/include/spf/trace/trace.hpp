// Memory access traces.
//
// A trace is the ordered stream of memory references a thread's hot loop
// performs, annotated with the structural information the SP machinery needs:
//
//  * outer_iter  — which outer-hot-loop iteration the access belongs to.
//                  This is the unit Set Affinity and prefetch distance are
//                  measured in (paper Definitions 1-3).
//  * site        — static load-site id (stands in for the load PC); feeds the
//                  IP-stride prefetcher and the delinquent-load selection.
//  * compute_gap — cycles of pure computation the thread performs *before*
//                  this access; encodes CALR into the trace.
//  * flags       — kSpine marks pointer-chasing spine loads the helper thread
//                  must execute even in skipped iterations; kDelinquent marks
//                  the problem loads SP prefetches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "spf/mem/types.hpp"

namespace spf {

using TraceFlags = std::uint8_t;
inline constexpr TraceFlags kFlagSpine = 0x1;
inline constexpr TraceFlags kFlagDelinquent = 0x2;

struct TraceRecord {
  Addr addr = 0;
  std::uint32_t outer_iter = 0;
  /// Compute cycles spent immediately before this access.
  std::uint16_t compute_gap = 0;
  /// Static load-site id (unique per static load in the hot function).
  std::uint8_t site = 0;
  /// Low 2 bits: AccessKind; remaining bits: TraceFlags shifted left by 2.
  std::uint8_t packed = 0;

  [[nodiscard]] AccessKind kind() const noexcept {
    return static_cast<AccessKind>(packed & 0x3);
  }
  [[nodiscard]] TraceFlags flags() const noexcept {
    return static_cast<TraceFlags>(packed >> 2);
  }
  [[nodiscard]] bool is_spine() const noexcept { return (flags() & kFlagSpine) != 0; }
  [[nodiscard]] bool is_delinquent() const noexcept {
    return (flags() & kFlagDelinquent) != 0;
  }

  /// Packs one access; a compute gap above 0xffff saturates. Inline: every
  /// TraceBuffer::emit runs it.
  static TraceRecord make(Addr addr, std::uint32_t outer_iter, AccessKind kind,
                          std::uint8_t site, TraceFlags flags,
                          std::uint32_t compute_gap) noexcept {
    TraceRecord r;
    r.addr = addr;
    r.outer_iter = outer_iter;
    r.compute_gap = static_cast<std::uint16_t>(
        std::min<std::uint32_t>(compute_gap, 0xffffu));
    r.site = site;
    r.packed = static_cast<std::uint8_t>(
        (static_cast<std::uint8_t>(kind) & 0x3) | (flags << 2));
    return r;
  }

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

static_assert(sizeof(TraceRecord) == 16, "trace records are stored raw on disk");

namespace trace_hooks {
/// Cumulative count of TraceRecord storage growth events (reserve calls that
/// enlarge a buffer, emits that trigger a reallocation). Test hook: the
/// streaming refinement paths claim *zero* trace-record allocations, and
/// tests/trace_stream_differential_test.cpp holds them to it by diffing this
/// counter around the call. Thread-safe (relaxed atomic).
[[nodiscard]] std::uint64_t record_allocations() noexcept;

namespace detail {
void note_record_allocation() noexcept;
}  // namespace detail
}  // namespace trace_hooks

/// Growable in-memory trace with an emit API for workload instrumentation.
class TraceBuffer {
 public:
  TraceBuffer() = default;
  explicit TraceBuffer(std::vector<TraceRecord> records)
      : records_(std::move(records)) {}

  void reserve(std::size_t n) {
    if (n > records_.capacity()) trace_hooks::detail::note_record_allocation();
    records_.reserve(n);
  }
  void clear() noexcept { records_.clear(); }

  /// Append one access in outer-loop iteration `outer_iter`.
  void emit(Addr addr, std::uint32_t outer_iter, AccessKind kind,
            std::uint8_t site, TraceFlags flags = 0, std::uint32_t compute_gap = 0) {
    if (records_.size() == records_.capacity()) {
      trace_hooks::detail::note_record_allocation();
    }
    records_.push_back(
        TraceRecord::make(addr, outer_iter, kind, site, flags, compute_gap));
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }
  [[nodiscard]] const TraceRecord& operator[](std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] std::span<const TraceRecord> records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::vector<TraceRecord>& mutable_records() noexcept {
    return records_;
  }

  /// Highest outer_iter present plus one; 0 for an empty trace.
  [[nodiscard]] std::uint32_t outer_iterations() const noexcept;

  auto begin() const noexcept { return records_.begin(); }
  auto end() const noexcept { return records_.end(); }

 private:
  std::vector<TraceRecord> records_;
};

}  // namespace spf
