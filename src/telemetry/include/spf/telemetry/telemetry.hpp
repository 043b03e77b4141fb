// spf::telemetry — low-overhead tracing & metrics for sweep-scale profiling.
//
// Model:
//
//   Session — owns the clock and a fixed set of Lanes (lane 0 = the thread
//     that installed the session, lanes 1..N = run_indexed workers). Created
//     by a driver when --metrics-out= / --trace-out= asks for artifacts,
//     installed process-globally, exported after the work completes.
//
//   Lane — one timeline + one counter/gauge array. A lane is written only by
//     the single thread currently bound to it (thread-local pointer), so
//     recording takes no locks; merging happens after the workers have been
//     joined, which is what makes the whole scheme race-free under TSan.
//
//   SPF_SPAN("name") — scoped phase span: records a begin timestamp at
//     construction and fills in the end at destruction. Spans nest; the
//     per-lane event list is naturally sorted by begin time.
//
// Cost model (the subsystem must never tax a run that didn't ask for it):
//
//   compile-time off  — -DSPF_TELEMETRY=0 (CMake option SPF_TELEMETRY=OFF)
//     turns SPF_SPAN into nothing and count()/gauge_max() into empty inlines;
//     Session and the exporters stay compiled so drivers keep working (they
//     export empty artifacts).
//   runtime off       — no session installed: the fast path is one
//     thread-local pointer load and a predictable branch. No atomics, no
//     clock reads.
//   runtime on        — counter add = array index increment; span = two
//     clock reads + one vector push_back into lane-private storage.
//
// Determinism contract: telemetry only *observes*. Sweep artifacts (table /
// CSV / JSONL) are byte-identical with a session installed or absent, at any
// thread count — tests/telemetry_test.cpp pins this against the golden grid.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "spf/telemetry/clock.hpp"
#include "spf/telemetry/counters.hpp"

#ifndef SPF_TELEMETRY
#define SPF_TELEMETRY 1
#endif

namespace spf::telemetry {

/// One recorded phase span. `name` / `arg_name` must be string literals (the
/// exporter reads them after the instrumented scope has unwound). `end == 0`
/// marks a span that was still open at export time.
struct SpanEvent {
  const char* name = nullptr;
  const char* arg_name = nullptr;  // nullptr = no argument
  std::uint64_t arg = 0;
  Clock::Ticks begin = 0;
  Clock::Ticks end = 0;
  std::uint32_t depth = 0;  // nesting depth at begin (0 = top level)
};

/// One timeline counter sample — a named value at an instant, exported as a
/// Chrome trace-event "C" (counter) track so Perfetto renders it as a graph
/// over the lane's timeline (the adaptive controller's per-interval distance
/// is the first user). `name` must be a string literal. Unlike the Counter
/// enum these are *samples*, not merged totals: they appear only in the
/// timeline export, never in the metrics JSONL.
struct CounterSample {
  const char* name = nullptr;
  Clock::Ticks ts = 0;
  std::uint64_t value = 0;
};

class Session;

/// Per-thread recording target. Written only by the bound thread; the
/// session reads it after that thread's work has been joined.
class Lane {
 public:
  void add(Counter c, std::uint64_t delta) noexcept {
    counters_[static_cast<std::size_t>(c)] += delta;
  }
  void gauge_max(Gauge g, std::uint64_t value) noexcept {
    std::uint64_t& slot = gauges_[static_cast<std::size_t>(g)];
    if (value > slot) slot = value;
  }
  std::size_t open_span(const char* name, const char* arg_name,
                        std::uint64_t arg) {
    SpanEvent ev;
    ev.name = name;
    ev.arg_name = arg_name;
    ev.arg = arg;
    ev.begin = clock_->now();
    ev.depth = depth_++;
    spans_.push_back(ev);
    return spans_.size() - 1;
  }
  void close_span(std::size_t index) noexcept {
    spans_[index].end = clock_->now();
    --depth_;
  }
  void add_sample(const char* name, std::uint64_t value) {
    samples_.push_back(CounterSample{name, clock_->now(), value});
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const std::vector<SpanEvent>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<CounterSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges_[static_cast<std::size_t>(g)];
  }

 private:
  friend class Session;
  Lane(const Clock* clock, std::uint32_t id, std::string label)
      : clock_(clock), id_(id), label_(std::move(label)) {}

  const Clock* clock_;
  std::uint32_t id_;
  std::string label_;
  std::array<std::uint64_t, kCounterCount> counters_{};
  std::array<std::uint64_t, kGaugeCount> gauges_{};
  std::vector<SpanEvent> spans_;
  std::vector<CounterSample> samples_;
  std::uint32_t depth_ = 0;
};

/// Deterministically merged view of a session: counters summed and gauges
/// maxed across lanes in lane-id order.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kGaugeCount> gauges{};
  std::uint64_t span_events = 0;

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
};

class Session {
 public:
  struct Options {
    Clock::Mode clock_mode = Clock::Mode::kSteady;
  };

  /// `lanes` >= 1. Lane 0 is labeled "main"; lane i > 0 is "worker-i" (the
  /// run_indexed worker lanes — worker w binds lane w + 1).
  Session(std::size_t lanes, Options options);
  explicit Session(std::size_t lanes) : Session(lanes, Options()) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }
  /// nullptr when `id` is out of range (an oversubscribed worker simply
  /// records nothing rather than racing another lane).
  [[nodiscard]] Lane* lane(std::size_t id) noexcept {
    return id < lanes_.size() ? lanes_[id].get() : nullptr;
  }
  [[nodiscard]] const Lane* lane(std::size_t id) const noexcept {
    return id < lanes_.size() ? lanes_[id].get() : nullptr;
  }
  [[nodiscard]] const Clock& clock() const noexcept { return clock_; }

  /// Merge all lanes (only call after the recording threads have joined).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Deterministic JSONL metrics dump (see docs/telemetry.md for the record
  /// schema): meta, counters in enum order, gauges in enum order, per-name
  /// span aggregates sorted by name, lanes by id.
  void write_metrics_jsonl(std::ostream& out) const;

  /// Chrome trace-event / Perfetto-loadable timeline: one JSON object with a
  /// "traceEvents" array of complete ("X") slices, one tid per lane, ts/dur
  /// in microseconds. Load via chrome://tracing or https://ui.perfetto.dev.
  void write_chrome_trace(std::ostream& out,
                          const std::string& process_name = "spf") const;

 private:
  Clock clock_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

namespace detail {
extern std::atomic<Session*> g_session;
// constinit (matching the definition) tells every includer the variable is
// constant-initialized, so reads are plain TLS loads instead of calls through
// GCC's dynamic-initialization wrapper (which UBSan flags as a null load).
extern constinit thread_local Lane* tl_lane;
}  // namespace detail

/// Installs `session` as the process-global recording target and binds the
/// calling thread to its lane 0 (nullptr uninstalls / unbinds). Returns the
/// previously installed session so callers can restore it — perf_smoke uses
/// this to A/B the telemetry-off and telemetry-on cost of the same sweep.
Session* install(Session* session) noexcept;

[[nodiscard]] inline Session* current() noexcept {
#if SPF_TELEMETRY
  return detail::g_session.load(std::memory_order_acquire);
#else
  return nullptr;
#endif
}

/// True when the *calling thread* is recording (session installed and this
/// thread bound to one of its lanes). This is the hot-path gate.
[[nodiscard]] inline bool enabled() noexcept {
#if SPF_TELEMETRY
  return detail::tl_lane != nullptr;
#else
  return false;
#endif
}

inline void count(Counter c, std::uint64_t delta = 1) noexcept {
#if SPF_TELEMETRY
  if (Lane* lane = detail::tl_lane) lane->add(c, delta);
#else
  (void)c;
  (void)delta;
#endif
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
#if SPF_TELEMETRY
  if (Lane* lane = detail::tl_lane) lane->gauge_max(g, value);
#else
  (void)g;
  (void)value;
#endif
}

/// Records a timeline counter sample (a "C" track point in the Chrome trace
/// export — see CounterSample) on the calling thread's lane; no-op when the
/// thread is not recording. `name` must be a string literal.
inline void sample(const char* name, std::uint64_t value) {
#if SPF_TELEMETRY
  if (Lane* lane = detail::tl_lane) lane->add_sample(name, value);
#else
  (void)name;
  (void)value;
#endif
}

/// Binds the calling thread to lane `lane_id` of the current session for the
/// scope's lifetime (restores the previous binding on exit). run_indexed
/// workers hold one of these; out-of-range ids bind nothing.
class LaneScope {
 public:
  explicit LaneScope(std::size_t lane_id) noexcept {
#if SPF_TELEMETRY
    prev_ = detail::tl_lane;
    Session* session = detail::g_session.load(std::memory_order_acquire);
    detail::tl_lane = session != nullptr ? session->lane(lane_id) : nullptr;
#else
    (void)lane_id;
#endif
  }
  ~LaneScope() {
#if SPF_TELEMETRY
    detail::tl_lane = prev_;
#endif
  }
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
#if SPF_TELEMETRY
  Lane* prev_ = nullptr;
#endif
};

/// RAII phase span; prefer the SPF_SPAN macro. `name` / `arg_name` must be
/// string literals.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept
      : ScopedSpan(name, nullptr, 0) {}
  ScopedSpan(const char* name, const char* arg_name, std::uint64_t arg) noexcept {
#if SPF_TELEMETRY
    lane_ = detail::tl_lane;
    if (lane_ != nullptr) index_ = lane_->open_span(name, arg_name, arg);
#else
    (void)name;
    (void)arg_name;
    (void)arg;
#endif
  }
  ~ScopedSpan() {
#if SPF_TELEMETRY
    if (lane_ != nullptr) lane_->close_span(index_);
#endif
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
#if SPF_TELEMETRY
  Lane* lane_ = nullptr;
  std::size_t index_ = 0;
#endif
};

}  // namespace spf::telemetry

#define SPF_TELEMETRY_CAT2(a, b) a##b
#define SPF_TELEMETRY_CAT(a, b) SPF_TELEMETRY_CAT2(a, b)

#if SPF_TELEMETRY
/// SPF_SPAN("replay") or SPF_SPAN("cell", "id", cell.id): scoped phase span
/// on the calling thread's lane; no-op when telemetry is off.
#define SPF_SPAN(...)                                      \
  ::spf::telemetry::ScopedSpan SPF_TELEMETRY_CAT(          \
      spf_telemetry_span_, __LINE__)(__VA_ARGS__)
#else
#define SPF_SPAN(...) ((void)0)
#endif
