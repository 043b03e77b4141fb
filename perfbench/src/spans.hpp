// Span log for the traced run: the benchmark opens a span around each op and
// around each public call it makes into the program, keeps the spans in
// memory, and writes them once at the end as Chrome trace-event JSON. The
// program itself records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string name;
  std::uint64_t id = 0;      // 1-based
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // 0 = set-up or probe work, not an op
  std::uint32_t lane = 0;    // 0 = main thread, 1.. = sweep workers
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int64_t child_end_ns = 0;
  /// Work the call did (records, accesses, ...), exact.
  std::map<std::string, double> counts;
};

/// Thread-safe: sweep workers open and close cell spans concurrently.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::uint64_t begin(std::string name, std::uint64_t parent, std::uint64_t op,
                      std::uint32_t lane);
  /// Closes the span. Its end is kept strictly after every closed child's,
  /// so nesting survives the microsecond conversion of the export.
  void end(std::uint64_t id);
  void count(std::uint64_t id, const std::string& key, double value);
  [[nodiscard]] std::uint64_t next_op();

  [[nodiscard]] std::vector<Span> snapshot() const;
  void write_chrome_trace(std::ostream& out) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  std::uint64_t ops_ = 0;
};

/// Scoped span on the calling thread: parent and op are taken from the
/// innermost open Scope on the same thread. A null log makes it a no-op, so
/// untraced runs pay one branch per call.
class Scope {
 public:
  Scope(SpanLog* log, std::string name, bool new_op = false);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void count(const std::string& key, double value) {
    if (log_ != nullptr) log_->count(id_, key, value);
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t op() const noexcept { return op_; }

 private:
  SpanLog* log_;
  std::uint64_t id_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
};

/// Duration minus the time its child spans cover (children may run
/// concurrently on other lanes, so their union is subtracted).
[[nodiscard]] std::map<std::uint64_t, double> self_seconds(
    const std::vector<Span>& spans);

}  // namespace perfbench
