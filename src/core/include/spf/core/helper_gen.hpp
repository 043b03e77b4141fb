// Helper-thread construction as a trace transform (paper Figure 1(b)).
//
// The SP helper executes only the loads' computation, in rounds of
// A_SKI + A_PRE outer iterations:
//
//   skip phase (first A_SKI iterations of the round): follow the spine only —
//     records flagged kFlagSpine are kept (the node->next chase the helper
//     cannot avoid); everything else is dropped. Array-scan workloads have no
//     spine records, so skipping is free for them.
//
//   pre-execute phase (last A_PRE iterations): every read is kept — spine,
//     address-generation and delinquent loads alike ("the helper thread
//     conducts A_PRE iterations of both two level traversal"). Writes are
//     always dropped: the helper must not mutate program state.
//
// By default kept reads stay blocking loads (the paper's helper is ordinary
// code whose loads stall it — that is exactly why low-CALR loops need the
// skip). Optionally delinquent loads become non-binding prefetch
// instructions instead (ablation: prefetch-instruction helper).
//
// The transform is HelperViewCursor: a lazy TraceCursor view that applies
// it per record while streaming over the main trace, allocating no record
// storage. It also satisfies BulkTraceCursor (fill() writes a whole window in
// one flat loop), so it feeds both the distance-bound refinement
// (spf/core/distance_bound.hpp) and the simulator's helper core via
// CursorWindowSource (docs/simulator.md "Cursor-fed cores & the peek
// window"). make_helper_trace drains it into a TraceBuffer for callers that
// want the stream materialized. tests/trace_cursor_property_test.cpp pins the
// cursor against the materializing generator in tests/replay_oracle.hpp.
#pragma once

#include <cstdint>
#include <span>

#include "spf/common/assert.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {

struct HelperGenOptions {
  /// Emit delinquent loads as AccessKind::kPrefetch (non-binding) instead of
  /// blocking reads.
  bool use_prefetch_instructions = false;
  /// Compute cycles the helper spends per kept record (address arithmetic).
  /// The paper's helper does almost none.
  std::uint16_t helper_compute_gap = 0;
};

/// Lazy TraceCursor over the helper thread's access stream: streams the main
/// trace and applies the skip/pre-execute transform per record, storing
/// nothing. outer_iter values are preserved (the simulator's RoundSync
/// staggers the two streams per round). Optionally re-anchors kept records to
/// the main-thread iteration at which they hit the shared cache
/// (outer_iter -> max(outer_iter - A_SKI, 0)), the view refine_with_helper
/// merges with the main stream.
///
/// The view borrows the main trace's storage; the buffer must outlive the
/// cursor.
class HelperViewCursor {
 public:
  HelperViewCursor(const TraceBuffer& main_trace, const SpParams& params,
                   const HelperGenOptions& options = {}, bool re_anchor = false)
      : HelperViewCursor(main_trace.records(), params, options, re_anchor, 0) {}

  /// Segment form: views `records` with every outer_iter re-based by
  /// `iter_base` before the transform — both the skip/pre-execute round
  /// position and the emitted record's outer_iter use the re-based value, so
  /// this is exactly the whole-trace view over a copy of the segment with
  /// outer_iter -= iter_base applied (iter_base = 0 degenerates to it). The
  /// adaptive interval replay (spf/core/adaptive.hpp) feeds each trace
  /// segment through this alongside a RebaseViewCursor for the demand core.
  HelperViewCursor(std::span<const TraceRecord> records, const SpParams& params,
                   const HelperGenOptions& options = {}, bool re_anchor = false,
                   std::uint32_t iter_base = 0)
      : records_(records),
        params_(params),
        options_(options),
        re_anchor_(re_anchor),
        iter_base_(iter_base) {
    SPF_ASSERT(params.a_pre > 0,
               "helper must pre-execute at least one iteration");
    settle();
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= records_.size(); }
  [[nodiscard]] const TraceRecord& current() const noexcept { return current_; }
  void advance() {
    ++pos_;
    settle();
  }
  void reset() {
    pos_ = 0;
    last_outer_ = ~std::uint32_t{0};
    last_pos_ = 0;
    settle();
  }

  /// Bulk form of the advance loop (see BulkTraceCursor): writes up to `cap`
  /// transformed records into `dst` and advances past them, returning the
  /// count written. Observationally equivalent to repeated
  /// {current(), advance()} — the scan runs as one flat loop straight into
  /// the destination, which is how the simulator's window source pulls the
  /// helper stream without a scratch buffer.
  std::size_t fill(TraceRecord* dst, std::size_t cap) {
    if (cap == 0 || done()) return 0;
    std::size_t n = 0;
    dst[n++] = current_;  // the already-settled pending record
    ++pos_;
    for (; n < cap && pos_ < records_.size(); ++pos_) {
      const TraceRecord& r = records_[pos_];
      if (!keeps(r)) continue;
      dst[n++] = transformed(r);
    }
    settle();  // re-establish the pending record for current()/done()
    return n;
  }

 private:
  /// The skip/pre-execute predicate. Records arrive grouped by outer
  /// iteration, so the round position is memoized per iteration
  /// (last_outer_/last_pos_) — one division per iteration, not per record.
  [[nodiscard]] bool keeps(const TraceRecord& r) {
    if (r.kind() == AccessKind::kWrite) return false;  // helper never stores
    if (r.outer_iter != last_outer_) {
      last_outer_ = r.outer_iter;
      last_pos_ = (r.outer_iter - iter_base_) % params_.round();
    }
    return last_pos_ >= params_.a_ski || r.is_spine();
  }

  /// The kept record's helper image (valid right after keeps(r) returned
  /// true, which leaves last_pos_ describing r's round position).
  [[nodiscard]] TraceRecord transformed(const TraceRecord& r) const {
    const bool pre_execute = last_pos_ >= params_.a_ski;
    AccessKind kind = AccessKind::kRead;
    if (pre_execute && r.is_delinquent() && options_.use_prefetch_instructions) {
      kind = AccessKind::kPrefetch;
    }
    std::uint32_t outer = r.outer_iter - iter_base_;
    if (re_anchor_) {
      outer = outer >= params_.a_ski ? outer - params_.a_ski : 0;
    }
    return TraceRecord::make(r.addr, outer, kind, r.site, r.flags(),
                             options_.helper_compute_gap);
  }

  /// Advances pos_ to the next main-trace record the helper keeps and caches
  /// its transformed image in current_.
  void settle() {
    for (; pos_ < records_.size(); ++pos_) {
      const TraceRecord& r = records_[pos_];
      if (!keeps(r)) continue;
      current_ = transformed(r);
      return;
    }
  }

  std::span<const TraceRecord> records_;
  SpParams params_;
  HelperGenOptions options_;
  bool re_anchor_ = false;
  std::uint32_t iter_base_ = 0;
  std::size_t pos_ = 0;
  std::uint32_t last_outer_ = ~std::uint32_t{0};
  std::uint32_t last_pos_ = 0;
  TraceRecord current_{};
};

static_assert(TraceCursor<HelperViewCursor>);
static_assert(BulkTraceCursor<HelperViewCursor>);

/// The helper thread's access stream, materialized: a drain of
/// HelperViewCursor, for callers that replay or inspect it as a buffer.
[[nodiscard]] inline TraceBuffer make_helper_trace(
    const TraceBuffer& main_trace, const SpParams& params,
    const HelperGenOptions& options = {}) {
  return materialize(HelperViewCursor(main_trace, params, options));
}

}  // namespace spf
