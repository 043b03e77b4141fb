// Reusable experiment execution state.
//
// The free functions in spf/core/experiment.hpp are pure: each call builds a
// private CmpSimulator, replays, and tears it down. That is the right
// *semantic* contract, but under sweep fan-out — thousands of cells per
// worker — construction cost (cache arrays, replacement state) dominates
// everything except replay itself.
//
// ExperimentContext keeps that state alive between runs:
//
//   - one CmpSimulator, reconfigured per run via CmpSimulator::run(config,
//     streams) — cache/MSHR/memory storage is reused, not reallocated;
//   - one bump Arena backing the simulator's cache arrays (released wholesale
//     when the context dies, never per cell);
//   - a fixed-ring helper feed (CursorWindowSource<HelperViewCursor>) that
//     synthesizes the helper stream *inside* replay, so no helper trace is
//     ever materialized — the one feed static and adaptive SP runs share.
//
// Results are bit-identical to the free functions — every reset seam is
// specified "as-if freshly constructed", and the golden-sweep and replay
// differential tests (against tests/replay_oracle.hpp) pin that equivalence.
//
// Re-entrancy: a context is single-threaded (no internal locking). For
// concurrent sweeps, give each worker its own context — ExperimentContextPool
// hands out exclusive leases and reuses contexts across cells.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spf/common/arena.hpp"
#include "spf/core/adaptive.hpp"
#include "spf/core/experiment.hpp"
#include "spf/core/helper_gen.hpp"
#include "spf/sim/l1_hits.hpp"
#include "spf/sim/simulator.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"
#include "spf/trace/trace_source.hpp"

namespace spf {

class ExperimentContext {
 public:
  ExperimentContext();

  // The simulator holds a pointer to arena_, so the context is pinned.
  ExperimentContext(const ExperimentContext&) = delete;
  ExperimentContext& operator=(const ExperimentContext&) = delete;

  // `main_l1_hits`, when given, is main_trace's precomputed L1 outcome
  // (L1HitBitmap::compute at config.sim.l1): the main core reads it instead
  // of keeping a live L1, with identical results. It must match main_trace's
  // size and config.sim.l1, or the run throws std::invalid_argument. The
  // helper core always keeps a live L1.

  /// Just the original (baseline) run. Identical to spf::run_original.
  SpRunSummary run_original(const TraceBuffer& main_trace,
                            const SpExperimentConfig& config,
                            const L1HitBitmap* main_l1_hits = nullptr);

  /// Just the SP run (no baseline). Identical to spf::run_sp_once.
  SpRunSummary run_sp_once(const TraceBuffer& main_trace,
                           const SpExperimentConfig& config,
                           const L1HitBitmap* main_l1_hits = nullptr);

  /// Original + SP runs. Identical to spf::run_sp_experiment.
  SpComparison run_comparison(const TraceBuffer& main_trace,
                              const SpExperimentConfig& config);

  /// Feedback-directed adaptive-distance run: one continuous SP replay of
  /// `main_trace` that pauses each time the main core reaches the next
  /// AdaptiveConfig::interval_iters boundary, feeds the controller that
  /// interval's counters, and retunes the helper feed, which adopts the new
  /// distance from its next unserved round. Zero trace-record allocations.
  /// A controller that cannot move replays exactly like run_sp_once.
  /// Identical to spf::run_adaptive_experiment; see docs/adaptive.md.
  AdaptiveRunResult run_adaptive(const TraceBuffer& main_trace,
                                 const SpExperimentConfig& base,
                                 const AdaptiveConfig& adaptive,
                                 const L1HitBitmap* main_l1_hits = nullptr);

  /// Bytes the simulator's L2 arrays have drawn from the context arena
  /// (monotone; storage is reused, so repeat runs stop growing it).
  [[nodiscard]] std::size_t arena_bytes() const noexcept {
    return arena_.bytes_served();
  }

 private:
  /// Ring size of the fused helper feed, in records (64 KiB of ring). Larger
  /// windows mean fewer, longer synthesis bursts interrupting replay; the
  /// burst's cache disturbance amortizes better with size until the ring
  /// outgrows L2 (4096 measured fastest on the SP cell — 256 and 16384 are
  /// both several percent slower; see bench/perf_smoke).
  static constexpr std::size_t kHelperFeedWindow = 4096;

  /// An SP run's streams: the main trace on core 0 and, gated on it, the
  /// helper feed rebuilt over `main_trace` on core 1.
  std::vector<CoreStream> sp_streams(const TraceBuffer& main_trace,
                                     const SpExperimentConfig& config,
                                     const L1HitBitmap* main_l1_hits);

  Arena arena_;
  CmpSimulator simulator_;
  /// Fused helper synthesis: a round-labelled HelperViewCursor over the
  /// (memo-shared) main trace, windowed for the simulator's pull seam.
  /// Optional because the cursor binds to a specific trace + params.
  std::optional<CursorWindowSource<HelperViewCursor, kHelperFeedWindow>>
      helper_feed_;
};

/// Fixed-size pool of contexts for concurrent sweep workers. Lease a context,
/// run any number of cells with it, return it on destruction:
///
///   ExperimentContextPool pool(num_threads);
///   ...in each worker:  auto lease = pool.acquire();
///                       lease->run_comparison(trace, cfg);
///
/// acquire() never blocks: the pool pre-creates `capacity` contexts and, if
/// oversubscribed (more simultaneous leases than capacity), mints a fresh
/// temporary context that dies with its lease.
///
/// The pool also owns a *trace memo*: per-workload base traces keyed by an
/// opaque workload-spec string (see trace_for). Sweep cells — and repeated
/// sweeps sharing one pool — that use the same workload then fetch the one
/// immutable emission instead of re-emitting it. The key must encode every
/// config field that affects the emitted trace; two callers presenting the
/// same key are promised the same source (docs/simulator.md "Streaming
/// traces & trace memoization" discusses key collisions).
class ExperimentContextPool {
 public:
  class Lease {
   public:
    Lease(ExperimentContextPool* pool, std::unique_ptr<ExperimentContext> ctx)
        : pool_(pool), ctx_(std::move(ctx)) {}
    ~Lease() {
      if (pool_ && ctx_) pool_->release(std::move(ctx_));
    }
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          ctx_(std::move(other.ctx_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    ExperimentContext& operator*() const noexcept { return *ctx_; }
    ExperimentContext* operator->() const noexcept { return ctx_.get(); }

   private:
    ExperimentContextPool* pool_;
    std::unique_ptr<ExperimentContext> ctx_;
  };

  explicit ExperimentContextPool(std::size_t capacity);

  [[nodiscard]] Lease acquire();

  /// Contexts currently parked in the pool (capacity minus live leases;
  /// test/introspection hook).
  [[nodiscard]] std::size_t idle() const;

  using TraceEmitFn = std::function<std::shared_ptr<const TraceSource>()>;

  struct TraceMemoStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total != 0 ? static_cast<double>(hits) / static_cast<double>(total)
                        : 0.0;
    }
  };

  /// Returns the memoized trace source for `key`, calling `emit` (outside the
  /// pool lock) exactly once per key across all threads; concurrent callers
  /// of the same key wait for the first emission. An empty key bypasses the
  /// memo (emit runs every call, nothing is counted or stored). A throwing
  /// emission propagates to every waiter and is erased, so a later call may
  /// retry. Throws std::runtime_error if `emit` returns nullptr.
  [[nodiscard]] std::shared_ptr<const TraceSource> trace_for(
      const std::string& key, const TraceEmitFn& emit);

  [[nodiscard]] TraceMemoStats trace_memo_stats() const;

 private:
  friend class Lease;
  void release(std::unique_ptr<ExperimentContext> ctx);

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ExperimentContext>> idle_;

  using TraceFuture = std::shared_future<std::shared_ptr<const TraceSource>>;
  mutable std::mutex memo_mu_;
  std::unordered_map<std::string, TraceFuture> memo_;
  TraceMemoStats memo_stats_;
};

}  // namespace spf
