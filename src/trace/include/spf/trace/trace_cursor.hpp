// Streaming trace views — cursors over TraceRecord streams.
//
// The Set-Affinity machinery only ever needs an *ordered pass* over trace
// records; materializing derived streams (the helper view, the merged
// main+helper stream) just to iterate them once is pure copy overhead. A
// TraceCursor is a forward, resettable, read-only position in a record
// stream:
//
//   done()     — true when the stream is exhausted;
//   current()  — the record at the cursor (valid only while !done(), and only
//                until the next advance()/reset(); adaptors may return a
//                reference to an internal transformed record);
//   advance()  — step to the next record (precondition: !done());
//   reset()    — rewind to the first record. Required because the profile
//                layer's cumulative fallback re-streams the same input
//                (see analyze_workload_sa).
//
// Cursors are cheap value types: copying one copies a position, never
// records. Adaptors that transform or merge streams (HelperViewCursor in
// spf/core/helper_gen.hpp, MergeByIterCursor below) compose over cursors so
// derived streams are computed on the fly with zero trace-record storage —
// the differential harness (tests/trace_stream_differential_test.cpp) pins
// them bit-identical to the materializing oracle in tests/replay_oracle.hpp.
//
// RecordSource (below) is the type-erased pull seam the CMP simulator
// consumes: a windowed view over any cursor (CursorWindowSource) or over a
// materialized buffer (BufferCursor), giving the scheduler its bounded peek
// lookahead without dictating where the records come from. See
// docs/simulator.md "Cursor-fed cores & the peek window".
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>

#include "spf/trace/trace.hpp"

namespace spf {

template <typename C>
concept TraceCursor = requires(C c, const C cc) {
  { cc.done() } -> std::convertible_to<bool>;
  { cc.current() } -> std::same_as<const TraceRecord&>;
  c.advance();
  c.reset();
};

/// Optional bulk refinement of TraceCursor: fill(dst, cap) writes up to `cap`
/// records into `dst` and advances past them, returning the count written —
/// observationally equivalent to `cap` repetitions of {current(), advance()},
/// just without the per-record call structure. Window adaptors
/// (CursorWindowSource below) prefer it when present, so transforming cursors
/// can run their scan as one tight loop straight into the window storage.
template <typename C>
concept BulkTraceCursor =
    TraceCursor<C> && requires(C c, TraceRecord* dst, std::size_t cap) {
      { c.fill(dst, cap) } -> std::convertible_to<std::size_t>;
    };

/// Cursor over an in-memory record sequence (a TraceBuffer or any span of
/// records). Does not own the storage; the underlying buffer must outlive it.
class TraceViewCursor {
 public:
  TraceViewCursor() = default;
  explicit TraceViewCursor(std::span<const TraceRecord> records) noexcept
      : records_(records) {}
  explicit TraceViewCursor(const TraceBuffer& trace) noexcept
      : records_(trace.records()) {}

  [[nodiscard]] bool done() const noexcept { return pos_ >= records_.size(); }
  [[nodiscard]] const TraceRecord& current() const noexcept {
    return records_[pos_];
  }
  void advance() noexcept { ++pos_; }
  void reset() noexcept { pos_ = 0; }

 private:
  std::span<const TraceRecord> records_{};
  std::size_t pos_ = 0;
};

static_assert(TraceCursor<TraceViewCursor>);

/// Drains `cursor` from its current position into a TraceBuffer, for callers
/// that want a derived stream materialized.
template <TraceCursor C>
[[nodiscard]] TraceBuffer materialize(C cursor) {
  TraceBuffer out;
  for (; !cursor.done(); cursor.advance()) {
    const TraceRecord& r = cursor.current();
    out.emit(r.addr, r.outer_iter, r.kind(), r.site, r.flags(), r.compute_gap);
  }
  return out;
}

/// Lazy k-way merge of record streams ordered by outer_iter: among the input
/// cursors whose current record has the minimal outer_iter, the
/// lowest-indexed input wins. For two inputs a and b this takes the head of
/// a iff b is exhausted or a.outer_iter <= b.outer_iter — on equal outer_iter
/// the a-side record comes first, and records of one input keep their
/// relative order. For inputs sorted by outer_iter that is the stable merge
/// keyed on (outer_iter, input index); for k sorted inputs it equals the left
/// fold of the two-way merge. Used to measure "Set Affinity with Helper
/// Thread" over the combined main+helper reference stream. No records are
/// copied or stored: current() forwards to the selected input's current().
template <TraceCursor... Cursors>
class MergeByIterCursor {
  static_assert(sizeof...(Cursors) >= 1, "merge needs at least one input");

 public:
  explicit MergeByIterCursor(Cursors... cursors)
      : cursors_(std::move(cursors)...) {
    select();
  }

  [[nodiscard]] bool done() const noexcept { return current_ == nullptr; }
  [[nodiscard]] const TraceRecord& current() const noexcept {
    return *current_;
  }
  void advance() {
    advance_input(active_);
    select();
  }
  void reset() {
    std::apply([](auto&... c) { (c.reset(), ...); }, cursors_);
    select();
  }

 private:
  template <typename Fn>
  void for_each_input(Fn&& fn) {
    std::size_t index = 0;
    std::apply([&](auto&... cursor) { (fn(index++, cursor), ...); }, cursors_);
  }

  /// Picks the live input with minimal current().outer_iter; the strict `<`
  /// keeps the earliest index on ties.
  void select() {
    current_ = nullptr;
    for_each_input([&](std::size_t index, auto& cursor) {
      if (!cursor.done() && (current_ == nullptr ||
                             cursor.current().outer_iter < current_->outer_iter)) {
        current_ = &cursor.current();
        active_ = index;
      }
    });
  }

  void advance_input(std::size_t which) {
    for_each_input([&](std::size_t index, auto& cursor) {
      if (index == which) cursor.advance();
    });
  }

  std::tuple<Cursors...> cursors_;
  const TraceRecord* current_ = nullptr;
  std::size_t active_ = 0;
};

/// Type-erased pull seam between record producers and the CMP simulator.
///
/// A RecordSource hands out its stream as a sequence of contiguous *windows*:
/// each next_window() call invalidates the previous window and returns the
/// records immediately following those already served (empty span = stream
/// exhausted). The consumer keeps a position inside the current window — that
/// position *is* the scheduler's bounded lookahead: the pending record (and
/// anything else still inside the window) is peekable without consuming, and
/// peek distance is bounded by the window size. Lookahead never spans a
/// window boundary, so sources only ever hold one window's worth of storage.
///
/// reset() rewinds to the start of the stream; the previously served window
/// is invalidated. Sources are single-consumer and not thread-safe.
class RecordSource {
 public:
  RecordSource() = default;
  virtual ~RecordSource() = default;
  RecordSource(const RecordSource&) = delete;
  RecordSource& operator=(const RecordSource&) = delete;
  // Movable so concrete sources can live by value inside growable containers
  // (the simulator's per-core feed slots); a moved-from source is only good
  // for destruction or reassignment.
  RecordSource(RecordSource&&) = default;
  RecordSource& operator=(RecordSource&&) = default;

  [[nodiscard]] virtual std::span<const TraceRecord> next_window() = 0;
  virtual void reset() = 0;
};

/// The materialized path as a special case of the pull seam: serves the whole
/// in-memory record sequence as a single window. Feeding a simulator core
/// from a BufferCursor therefore costs one virtual call per run and zero
/// copies — reading through the window is reading the buffer. Does not own
/// the storage; the underlying buffer must outlive the cursor.
class BufferCursor final : public RecordSource {
 public:
  BufferCursor() = default;
  explicit BufferCursor(std::span<const TraceRecord> records) noexcept
      : records_(records) {}
  explicit BufferCursor(const TraceBuffer& trace) noexcept
      : records_(trace.records()) {}

  /// Repoint at a different record sequence (and rewind). The simulator's
  /// per-core feed slots reuse one BufferCursor across runs this way.
  void rebind(std::span<const TraceRecord> records) noexcept {
    records_ = records;
    served_ = false;
  }

  [[nodiscard]] std::span<const TraceRecord> next_window() override {
    if (served_) return {};
    served_ = true;
    return records_;
  }
  void reset() override { served_ = false; }

 private:
  std::span<const TraceRecord> records_{};
  bool served_ = false;
};

/// Ring-buffer-backed window over any TraceCursor: each refill synthesizes up
/// to WindowN records from the cursor into fixed storage and serves them as
/// the next window. This is how lazily computed streams (HelperViewCursor)
/// feed the simulator without ever materializing a trace — the ring is the
/// only record storage, it is reused for every window, and it is plain
/// member storage, so the trace_hooks::record_allocations() counter stays
/// flat no matter how long the stream is.
///
/// WindowN bounds the consumer's peek distance (see RecordSource) and sets
/// the refill cadence: larger windows mean fewer, longer synthesis bursts
/// interrupting the consumer, which amortizes the burst's cache disturbance
/// better at the price of ring residency (the 256-record default is one 4 KiB
/// L1 page; the SP helper feed measures fastest at 4096 — see
/// ExperimentContext::kHelperFeedWindow).
template <TraceCursor C, std::size_t WindowN = 256>
class CursorWindowSource final : public RecordSource {
  static_assert(WindowN >= 1, "window must hold at least the pending record");

 public:
  explicit CursorWindowSource(C cursor) : cursor_(std::move(cursor)) {}

  [[nodiscard]] std::span<const TraceRecord> next_window() override {
    std::size_t n = 0;
    if constexpr (BulkTraceCursor<C>) {
      n = cursor_.fill(ring_.data(), WindowN);
    } else {
      while (n < WindowN && !cursor_.done()) {
        ring_[n++] = cursor_.current();
        cursor_.advance();
      }
    }
    served_ += n;
    return {ring_.data(), n};
  }
  void reset() override {
    cursor_.reset();
    served_ = 0;
  }

  /// Records handed out since construction/reset() — how large the stream a
  /// consumer pulled would have been, had it been materialized.
  [[nodiscard]] std::uint64_t records_served() const noexcept { return served_; }

  /// The wrapped cursor, e.g. to retune a HelperViewCursor between windows.
  [[nodiscard]] C& cursor() noexcept { return cursor_; }

 private:
  C cursor_;
  std::uint64_t served_ = 0;
  std::array<TraceRecord, WindowN> ring_{};
};

}  // namespace spf
