#include "spf/core/experiment_context.hpp"

#include <exception>
#include <stdexcept>

#include "spf/common/assert.hpp"
#include "spf/telemetry/telemetry.hpp"

namespace spf {

ExperimentContext::ExperimentContext() : simulator_(SimConfig{}, &arena_) {}

SpRunSummary ExperimentContext::run_original(const TraceBuffer& main_trace,
                                             const SpExperimentConfig& config,
                                             const L1HitBitmap* main_l1_hits) {
  SPF_SPAN("replay");
  telemetry::count(telemetry::Counter::kBaselineRuns);
  telemetry::count(telemetry::Counter::kReplayRecords, main_trace.size());
  SimConfig sim = config.sim;
  sim.hw_prefetch = config.baseline_hw_prefetch;
  const SimResult result = simulator_.run(
      sim, {CoreStream{.trace = &main_trace, .origin = FillOrigin::kDemand,
                       .sync = std::nullopt, .l1_hits = main_l1_hits}});
  telemetry::gauge_max(telemetry::Gauge::kArenaBytesMax, arena_.bytes_served());
  return SpRunSummary::from(result);
}

std::vector<CoreStream> ExperimentContext::sp_streams(
    const TraceBuffer& main_trace, const SpExperimentConfig& config,
    const L1HitBitmap* main_l1_hits) {
  // The helper core pulls its records through a HelperViewCursor window
  // *during* replay, so helper synthesis is part of the replay and no helper
  // trace is ever stored. Round-labelled records gate with round_iters = 1.
  helper_feed_.emplace(HelperViewCursor::round_labelled(
      main_trace, config.params, config.helper));
  return {
      CoreStream{.trace = &main_trace, .origin = FillOrigin::kDemand,
                 .sync = std::nullopt, .l1_hits = main_l1_hits},
      CoreStream{.source = &*helper_feed_, .origin = FillOrigin::kHelper,
                 .sync = RoundSync{.leader = 0, .round_iters = 1}},
  };
}

SpRunSummary ExperimentContext::run_sp_once(const TraceBuffer& main_trace,
                                            const SpExperimentConfig& config,
                                            const L1HitBitmap* main_l1_hits) {
  SPF_SPAN("replay");
  telemetry::count(telemetry::Counter::kReplayRuns);
  telemetry::count(telemetry::Counter::kReplayRecords, main_trace.size());
  const SimResult result = simulator_.run(
      config.sim, sp_streams(main_trace, config, main_l1_hits));
  telemetry::count(telemetry::Counter::kHelperRecords,
                   helper_feed_->records_served());
  telemetry::gauge_max(telemetry::Gauge::kArenaBytesMax, arena_.bytes_served());
  return SpRunSummary::from(result);
}

SpComparison ExperimentContext::run_comparison(const TraceBuffer& main_trace,
                                               const SpExperimentConfig& config) {
  SpComparison cmp;
  cmp.original = run_original(main_trace, config);
  cmp.sp = run_sp_once(main_trace, config);
  return cmp;
}

ExperimentContextPool::ExperimentContextPool(std::size_t capacity)
    : capacity_(capacity) {
  SPF_ASSERT(capacity > 0, "context pool needs positive capacity");
  idle_.reserve(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    idle_.push_back(std::make_unique<ExperimentContext>());
  }
}

ExperimentContextPool::Lease ExperimentContextPool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!idle_.empty()) {
      auto ctx = std::move(idle_.back());
      idle_.pop_back();
      return Lease(this, std::move(ctx));
    }
  }
  // Oversubscribed: mint a throwaway context rather than block the worker.
  // pool_ == nullptr makes the lease drop it instead of returning it.
  return Lease(nullptr, std::make_unique<ExperimentContext>());
}

std::size_t ExperimentContextPool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return idle_.size();
}

void ExperimentContextPool::release(std::unique_ptr<ExperimentContext> ctx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (idle_.size() < capacity_) idle_.push_back(std::move(ctx));
}

std::shared_ptr<const TraceSource> ExperimentContextPool::trace_for(
    const std::string& key, const TraceEmitFn& emit) {
  SPF_ASSERT(emit != nullptr, "trace_for needs an emit function");
  if (key.empty()) {
    // Unkeyed sources are never memoized (e.g. from_source specs that already
    // hold a shared materialized trace).
    SPF_SPAN("trace-emit");
    telemetry::count(telemetry::Counter::kTraceEmissions);
    auto src = emit();
    if (src == nullptr) {
      throw std::runtime_error("trace emitter returned no trace source");
    }
    telemetry::gauge_max(telemetry::Gauge::kTraceRecordsMax, src->trace.size());
    return src;
  }

  std::promise<std::shared_ptr<const TraceSource>> promise;
  TraceFuture future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ++memo_stats_.hits;
      future = it->second;
    } else {
      ++memo_stats_.misses;
      owner = true;
      future = promise.get_future().share();
      memo_.emplace(key, future);
    }
  }
  if (owner) {
    // Emission runs outside the lock: other keys proceed concurrently, and
    // only same-key callers wait on the future.
    SPF_SPAN("trace-emit");
    telemetry::count(telemetry::Counter::kTraceEmissions);
    telemetry::count(telemetry::Counter::kTraceMemoMisses);
    try {
      auto src = emit();
      if (src == nullptr) {
        throw std::runtime_error("trace emitter returned no trace source for '" +
                                 key + "'");
      }
      telemetry::gauge_max(telemetry::Gauge::kTraceRecordsMax,
                           src->trace.size());
      promise.set_value(std::move(src));
    } catch (...) {
      promise.set_exception(std::current_exception());
      // A failed emission is not cached: later callers may retry (in-flight
      // waiters still observe this failure through their future copy).
      std::lock_guard<std::mutex> lock(memo_mu_);
      memo_.erase(key);
    }
    return future.get();
  }
  // Memo hit: a short slice per consumer makes re-emission savings visible
  // on the sweep timeline (the wait on a still-emitting future shows up as
  // the slice's duration).
  telemetry::count(telemetry::Counter::kTraceMemoHits);
  SPF_SPAN("memo-hit");
  return future.get();  // rethrows the emission failure for every caller
}

ExperimentContextPool::TraceMemoStats ExperimentContextPool::trace_memo_stats()
    const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_stats_;
}

void ExperimentContextPool::clear_trace_memo() {
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_.clear();
  memo_stats_ = TraceMemoStats{};
}

}  // namespace spf
