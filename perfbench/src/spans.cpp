#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace perfbench {
namespace {

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_op = 0;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Nanoseconds as microseconds with all three decimals (exact).
std::string micros(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  return buf;
}

}  // namespace

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent,
                             std::uint64_t op, std::uint32_t lane) {
  const std::int64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = std::move(name);
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.op = op;
  span.lane = lane;
  span.begin_ns = now;
  if (parent != 0) {
    span.begin_ns = std::max(now, spans_[parent - 1].begin_ns);
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  const std::int64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_ns = std::max({now, span.begin_ns, span.child_end_ns + 1});
  if (span.parent != 0) {
    Span& parent = spans_[span.parent - 1];
    parent.child_end_ns = std::max(parent.child_end_ns, span.end_ns);
  }
}

void SpanLog::count(std::uint64_t id, const std::string& key, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].counts[key] += value;
}

std::uint64_t SpanLog::next_op() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++ops_;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::write_chrome_trace(std::ostream& out) const {
  std::vector<Span> spans = snapshot();
  // Per lane, begin order with enclosing spans first: the order
  // scripts/check_trace_json.py requires (monotone begins, proper nesting).
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
    if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
    return a.id < b.id;
  });
  std::uint32_t lanes = 1;
  for (const Span& s : spans) lanes = std::max(lanes, s.lane + 1);

  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"spf_perfbench\"}}";
  for (std::uint32_t lane = 0; lane < lanes; ++lane) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
        << lane << ",\"args\":{\"name\":"
        << json_string(lane == 0 ? "main" : "worker " + std::to_string(lane))
        << "}}";
  }
  for (const Span& s : spans) {
    if (s.end_ns < 0) continue;  // never closed: a failed call's lost span
    out << ",\n{\"name\":" << json_string(s.name)
        << ",\"cat\":" << json_string(s.name.substr(0, s.name.find('.')))
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << micros(s.begin_ns)
        << ",\"dur\":" << micros(s.end_ns - s.begin_ns)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op;
    for (const auto& [key, value] : s.counts) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << "," << json_string(key) << ":" << buf;
    }
    out << "}}";
  }
  out << "\n]}\n";
}

Scope::Scope(SpanLog* log, std::string name, bool new_op) : log_(log) {
  if (log_ == nullptr) return;
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  op_ = new_op ? log_->next_op() : t_op;
  id_ = log_->begin(std::move(name), t_parent, op_, 0);
  t_parent = id_;
  t_op = op_;
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->end(id_);
  t_parent = saved_parent_;
  t_op = saved_op_;
}

std::map<std::uint64_t, double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0 && s.end_ns >= 0) {
      children[s.parent].emplace_back(s.begin_ns, s.end_ns);
    }
  }
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    if (s.end_ns < 0) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t run_begin = -1;
      std::int64_t run_end = -1;
      for (auto [b, e] : iv) {
        b = std::max(b, s.begin_ns);
        e = std::min(e, s.end_ns);
        if (e <= b) continue;
        if (b > run_end) {
          if (run_end > run_begin) covered += run_end - run_begin;
          run_begin = b;
          run_end = e;
        } else {
          run_end = std::max(run_end, e);
        }
      }
      if (run_end > run_begin) covered += run_end - run_begin;
    }
    out[s.id] = static_cast<double>(s.end_ns - s.begin_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
