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
};

/// Lazy TraceCursor over the helper thread's access stream: streams the main
/// trace and applies the skip/pre-execute transform per record, storing
/// nothing. Kept records keep their outer_iter (what make_helper_trace
/// materializes), or are re-anchored to the main-thread iteration at which
/// they hit the shared cache, max(outer_iter - A_SKI, 0) (`re_anchor`: the
/// view refine_with_helper merges with the main stream). round_labelled()
/// builds the simulator's helper feed: a record carries its round's first
/// iteration s, gated with RoundSync::round_iters = 1 — a leader at L
/// releases it once L >= s, exactly when floor(L/R) < floor(o/R) — so
/// retune() can change the round length R mid-run. fill() never hands out
/// two rounds in one call.
///
/// The view borrows the main trace's storage; the buffer must outlive the
/// cursor.
class HelperViewCursor {
 public:
  HelperViewCursor(const TraceBuffer& main_trace, const SpParams& params,
                   const HelperGenOptions& options = {}, bool re_anchor = false)
      : HelperViewCursor(main_trace.records(), params, options,
                         re_anchor ? Label::kReAnchored : Label::kIteration) {}

  [[nodiscard]] static HelperViewCursor round_labelled(
      const TraceBuffer& main_trace, const SpParams& params,
      const HelperGenOptions& options = {}) {
    return HelperViewCursor(main_trace.records(), params, options,
                            Label::kRoundStart);
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= records_.size(); }
  [[nodiscard]] const TraceRecord& current() const noexcept { return current_; }
  void advance() {
    served_ = round_;
    served_end_ = ++pos_;
    settle();
  }
  void reset() {
    *this = HelperViewCursor(records_, initial_params_, options_, label_);
  }

  /// Bulk form of the advance loop (see BulkTraceCursor): writes up to `cap`
  /// transformed records of the pending record's round into `dst` and
  /// advances past them, returning the count written — repeated
  /// {current(), advance()} up to the round's end as one flat loop straight
  /// into the simulator's window, with no scratch buffer.
  std::size_t fill(TraceRecord* dst, std::size_t cap) {
    if (cap == 0 || done()) return 0;
    served_ = round_;
    std::size_t n = 0;
    dst[n++] = current_;  // the already-settled pending record
    served_end_ = ++pos_;
    for (; n < cap && pos_ < records_.size(); ++pos_) {
      const TraceRecord& r = records_[pos_];
      if (!keeps(r)) continue;
      if (round_.begin != served_.begin) break;  // r opens the next round
      dst[n++] = transformed(r);
      served_end_ = pos_ + 1;
    }
    settle();  // re-establish the pending record for current()/done()
    return n;
  }

  /// Retunes a round-labelled view: the round of the last record handed out
  /// (round 0 before any) keeps its parameters, and every later round runs
  /// under `params`. A pending record already settled past that round is
  /// re-derived.
  void retune(const SpParams& params) {
    SPF_ASSERT(label_ == Label::kRoundStart,
               "only the round-labelled helper feed can be retuned");
    SPF_ASSERT(params.a_pre > 0,
               "helper must pre-execute at least one iteration");
    round_ = served_;
    next_params_ = params;
    pos_ = served_end_;
    last_outer_ = ~std::uint32_t{0};
    settle();
  }

 private:
  enum class Label : std::uint8_t { kIteration, kReAnchored, kRoundStart };

  /// A skip/pre-execute round: its first iteration and its parameters.
  struct Round {
    std::uint32_t begin = 0;
    SpParams params;
  };

  HelperViewCursor(std::span<const TraceRecord> records, const SpParams& params,
                   const HelperGenOptions& options, Label label)
      : records_(records),
        initial_params_(params),
        options_(options),
        label_(label),
        next_params_(params),
        round_{0, params},
        served_{0, params} {
    SPF_ASSERT(params.a_pre > 0,
               "helper must pre-execute at least one iteration");
    settle();
  }

  /// Moves round_ to the round holding iteration `outer` (once per
  /// iteration: records arrive grouped by it). Later rounds run back to back
  /// under next_params_; a step back before the current round re-rounds on
  /// the grid from iteration 0.
  void locate(std::uint32_t outer) {
    last_outer_ = outer;
    const std::uint64_t end =
        std::uint64_t{round_.begin} + round_.params.round();
    if (outer >= end) {
      round_.params = next_params_;
      const std::uint32_t length = round_.params.round();
      const auto from = static_cast<std::uint32_t>(end);
      round_.begin = from + (outer - from) / length * length;
    } else if (outer < round_.begin) {
      round_.begin = outer / round_.params.round() * round_.params.round();
    }
    last_pos_ = outer - round_.begin;
  }

  /// The skip/pre-execute predicate.
  [[nodiscard]] bool keeps(const TraceRecord& r) {
    if (r.kind() == AccessKind::kWrite) return false;  // helper never stores
    if (r.outer_iter != last_outer_) locate(r.outer_iter);
    return last_pos_ >= round_.params.a_ski || r.is_spine();
  }

  /// The kept record's helper image (valid right after keeps(r) returned
  /// true, which leaves round_ / last_pos_ describing r's round position).
  [[nodiscard]] TraceRecord transformed(const TraceRecord& r) const {
    const std::uint32_t a_ski = round_.params.a_ski;
    AccessKind kind = AccessKind::kRead;
    if (last_pos_ >= a_ski && r.is_delinquent() &&
        options_.use_prefetch_instructions) {
      kind = AccessKind::kPrefetch;
    }
    std::uint32_t outer = r.outer_iter;
    if (label_ == Label::kReAnchored) {
      outer = outer >= a_ski ? outer - a_ski : 0;
    } else if (label_ == Label::kRoundStart) {
      outer = round_.begin;
    }
    // The paper's helper does almost no computation: its records carry no
    // compute gap.
    return TraceRecord::make(r.addr, outer, kind, r.site, r.flags(), 0);
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
  SpParams initial_params_;
  HelperGenOptions options_;
  Label label_;
  SpParams next_params_;
  std::size_t pos_ = 0;
  std::uint32_t last_outer_ = ~std::uint32_t{0};
  Round round_;  // last_outer_'s round
  std::uint32_t last_pos_ = 0;
  TraceRecord current_{};
  // The round of the last record handed out and the scan position just past
  // that record: where retune() resumes.
  Round served_;
  std::size_t served_end_ = 0;
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
