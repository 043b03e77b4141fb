#include "spf/profile/incremental_affinity.hpp"

#include <algorithm>
#include <cmath>

namespace spf {

std::string PhaseAffinityConfig::validate() const {
  if (window_iters == 0) return "phase window must be >= 1 outer iteration";
  if (!std::isfinite(hysteresis) || hysteresis < 0.0) {
    return "phase hysteresis must be finite and >= 0";
  }
  if (!std::isfinite(ema_alpha) || ema_alpha <= 0.0 || ema_alpha > 1.0) {
    return "phase ema_alpha must be in (0, 1]";
  }
  return {};
}

IncrementalAffinityAnalyzer::IncrementalAffinityAnalyzer(
    const CacheGeometry& geometry, std::vector<std::uint32_t> invocation_starts,
    const PhaseAffinityConfig& config)
    : geometry_(geometry),
      invocation_starts_(std::move(invocation_starts)),
      config_(config),
      analyzer_(geometry) {
  SPF_ASSERT(!invocation_starts_.empty() && invocation_starts_.front() == 0,
             "invocation starts must begin at iteration 0");
}

void IncrementalAffinityAnalyzer::observe(const TraceRecord& r) {
  while (inv_ + 1 < invocation_starts_.size() &&
         r.outer_iter >= invocation_starts_[inv_ + 1]) {
    per_invocation_.push_back(analyzer_.finish());
    ++inv_;
    base_ = invocation_starts_[inv_];
  }
  const std::uint32_t sa = analyzer_.observe(r.addr, r.outer_iter - base_);
  iter_end_ = std::max(iter_end_, r.outer_iter + 1);
  if (sa != 0) on_sample(r.outer_iter, sa);
}

bool IncrementalAffinityAnalyzer::needs_cumulative_pass() {
  SPF_ASSERT(!merged_, "per-invocation pass already closed");
  per_invocation_.push_back(analyzer_.finish());
  for (const SetAffinityResult& r : per_invocation_) {
    whole_.merged.samples.insert(whole_.merged.samples.end(),
                                 r.samples.begin(), r.samples.end());
    whole_.merged.accesses += r.accesses;
    whole_.merged.touched_sets =
        std::max(whole_.merged.touched_sets, r.touched_sets);
    whole_.merged.outer_iterations += r.outer_iterations;
    for (const auto& [set, sa] : r.per_set) {
      auto [it, inserted] = whole_.merged.per_set.emplace(set, sa);
      if (!inserted) it->second = std::min(it->second, sa);
    }
  }
  whole_.invocations_analyzed =
      static_cast<std::uint32_t>(per_invocation_.size());
  per_invocation_.clear();
  merged_ = true;
  if (!whole_.merged.samples.empty()) return false;

  // Restart the phase tracker too: the phases must describe the analysis
  // actually reported (the cumulative stream), not the abandoned one.
  fallback_ = true;
  window_open_ = false;
  ema_set_ = false;
  iter_end_ = 0;
  current_ = AffinityPhase{};
  phases_.clear();
  return true;
}

void IncrementalAffinityAnalyzer::observe_cumulative(const TraceRecord& r) {
  SPF_ASSERT(fallback_, "cumulative pass not requested");
  const std::uint32_t sa = analyzer_.observe(r.addr, r.outer_iter);
  iter_end_ = std::max(iter_end_, r.outer_iter + 1);
  if (sa != 0) on_sample(r.outer_iter, sa);
}

PhasedSaResult IncrementalAffinityAnalyzer::finish() {
  SPF_ASSERT(merged_, "call needs_cumulative_pass() before finish()");
  if (fallback_) {
    whole_.merged = analyzer_.finish();
    whole_.cumulative_fallback = true;
  }
  close_window();
  current_.end_iter = std::max(iter_end_, current_.begin_iter);
  if (current_.samples == 0) current_.min_sa = 0;
  phases_.push_back(current_);

  PhasedSaResult out;
  out.whole = std::move(whole_);
  out.phases = std::move(phases_);
  return out;
}

void IncrementalAffinityAnalyzer::on_sample(std::uint32_t cumulative_iter,
                                            std::uint32_t sa) {
  const std::uint64_t w = cumulative_iter / config_.window_iters;
  if (window_open_ && w <= window_idx_) {
    // Same window — or an out-of-order record (fuzzed inputs): fold it into
    // the open window so phase spans stay monotone.
    window_min_ = std::min(window_min_, sa);
    ++window_count_;
    return;
  }
  close_window();
  window_open_ = true;
  window_idx_ = w;
  window_min_ = sa;
  window_count_ = 1;
}

void IncrementalAffinityAnalyzer::close_window() {
  if (!window_open_) return;
  window_open_ = false;
  const double estimate = window_min_;
  if (!ema_set_) {
    ema_ = estimate;
    ema_set_ = true;
    absorb_window();
    return;
  }
  const double deviation =
      estimate > ema_ ? estimate - ema_ : ema_ - estimate;
  if (config_.detect_phases && deviation > config_.hysteresis * ema_) {
    // The shifted window opens a new phase at its own start; the EMA re-seeds
    // so a sustained shift settles instead of re-triggering every window.
    const auto boundary =
        static_cast<std::uint32_t>(window_idx_ * config_.window_iters);
    current_.end_iter = boundary;
    if (current_.samples == 0) current_.min_sa = 0;
    phases_.push_back(current_);
    current_ = AffinityPhase{};
    current_.index = phases_.back().index + 1;
    current_.begin_iter = boundary;
    current_.min_sa = window_min_;
    current_.samples = window_count_;
    ema_ = estimate;
    return;
  }
  absorb_window();
  ema_ += config_.ema_alpha * (estimate - ema_);
}

void IncrementalAffinityAnalyzer::absorb_window() {
  current_.min_sa = current_.samples == 0
                        ? window_min_
                        : std::min(current_.min_sa, window_min_);
  current_.samples += window_count_;
}

PhasedSaResult analyze_workload_sa_phased(
    const TraceBuffer& trace, const std::vector<std::uint32_t>& invocation_starts,
    const CacheGeometry& geometry, const PhaseAffinityConfig& config) {
  TraceViewCursor cursor(trace);
  return analyze_workload_sa_phased(cursor, invocation_starts, geometry,
                                    config);
}

}  // namespace spf
