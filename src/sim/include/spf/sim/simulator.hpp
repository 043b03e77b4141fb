// Trace-driven CMP simulator.
//
// Topology (one Core 2 die, paper Table I): N cores, each with a private L1D
// and a per-core hardware prefetcher pair (DPL stride + streamer), sharing
// one inclusive L2 with a finite MSHR file in front of a bandwidth-limited
// memory channel.
//
// Execution model: each core consumes its TraceRecord stream; the engine
// always advances the core with the smallest local clock (deterministic
// tie-break by core id), so interleaving at the shared L2 is reproducible.
// Timing is approximate at instruction granularity but exact in the ordering
// relationships that matter for the paper's metrics: a fill is usable only
// after its memory round trip; a second request to an in-flight line merges
// and waits only the residual latency (partially hit).
//
// Replay is batched: one scheduler round per *run* of records that the round
// provably keeps on the same core — the batch ends on core switch
// (next-access time reaches a rival's), round boundary, helper-sync progress
// point, pause point, or trace end (see docs/simulator.md). Every core pulls
// its records through a RecordSource window — the seam that lets a core
// consume a lazily synthesized stream (the fused SP helper) that is never
// materialized; a materialized TraceBuffer is served as one window. The
// record-at-a-time reference scheduler the batched loop is pinned against
// lives in tests/replay_oracle.hpp. See docs/simulator.md "Batched replay &
// vector tag match" and "Cursor-fed cores & the peek window".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "spf/cache/cache.hpp"
#include "spf/cache/lru_stack.hpp"
#include "spf/common/arena.hpp"
#include "spf/common/assert.hpp"
#include "spf/memsys/memory.hpp"
#include "spf/mshr/mshr.hpp"
#include "spf/prefetch/core_prefetchers.hpp"
#include "spf/sim/config.hpp"
#include "spf/sim/l1_hits.hpp"
#include "spf/sim/pollution.hpp"
#include "spf/sim/provenance.hpp"
#include "spf/sim/result.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_cursor.hpp"

namespace spf {

namespace test {
struct ReplayOracle;
}  // namespace test

/// One core's workload description. Exactly one of `trace` / `source` feeds
/// the core: `trace` points at a materialized buffer (served as a single
/// window); `source` is a RecordSource pulled window-by-window, which is how
/// lazily synthesized streams (the fused SP helper) reach the simulator
/// without a scratch buffer. The source must outlive the run and is reset()
/// at run start.
struct CoreStream {
  const TraceBuffer* trace = nullptr;
  RecordSource* source = nullptr;
  /// Provenance tag for L2 fills caused by this core's accesses. Main
  /// computation threads use kDemand; the SP helper uses kHelper so its fills
  /// participate in pollution case 2.
  FillOrigin origin = FillOrigin::kDemand;
  /// Round-gated staggering against a leader core (SP helper threads).
  std::optional<RoundSync> sync;
  /// Precomputed L1 outcome of `trace` (spf/sim/l1_hits.hpp). When set, the
  /// core reads record i's L1 hit bit instead of keeping a live L1; results
  /// are identical. Requires a trace-backed stream (no `source`), a bitmap
  /// of the trace's size and the run's SimConfig::l1 geometry — the run
  /// throws std::invalid_argument otherwise. Must outlive the run.
  const L1HitBitmap* l1_hits = nullptr;
};

class CmpSimulator {
 public:
  /// `arena`, when non-null, backs the shared L2 arrays of every run; it must
  /// outlive the simulator. ExperimentContext passes its per-context arena
  /// here so cell construction under sweep fan-out stays off the global heap.
  explicit CmpSimulator(const SimConfig& config, Arena* arena = nullptr);

  /// Runs all streams to completion and returns the metrics. Core i of the
  /// result corresponds to streams[i]. The simulator is reusable: each run
  /// starts from cold caches, and repeat runs reuse the previous run's
  /// storage (no per-run allocation once shapes have been seen).
  SimResult run(const std::vector<CoreStream>& streams);

  /// Reconfigure-and-run, the reuse seam ExperimentContext drives: same
  /// result as constructing a fresh CmpSimulator(config) and running it.
  SimResult run(const SimConfig& config, const std::vector<CoreStream>& streams);

  /// run() in steps, for callers acting between intervals (the adaptive
  /// controller, spf/core/adaptive.hpp): start() resets like run();
  /// run_until(iter) replays until core 0's pending record reaches outer
  /// iteration `iter`, returning that record's outer_iter, or until every
  /// stream ends (nullopt; an `iter` of 2^32 or more never pauses); finish()
  /// drains and collects. Pauses are batch ends, so they leave the replay
  /// unchanged; between calls the caller may read progress() and retune
  /// records its sources have not served yet.
  void start(const SimConfig& config, const std::vector<CoreStream>& streams);
  std::optional<std::uint32_t> run_until(std::uint64_t iter);
  SimResult finish();

  /// The run so far, as finish() would report it before its final drain
  /// (provisional provenance), minus occupancy samples and top sets.
  [[nodiscard]] SimResult progress() const;

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }

 private:
  /// The record-at-a-time reference scheduler (tests/replay_oracle.hpp)
  /// drives reset(), the gate checks and step_batch() directly.
  friend struct test::ReplayOracle;

  /// Widest topology the scheduler supports: the batched loop tracks the
  /// leaders gated cores wait on in one 64-bit mask.
  static constexpr std::size_t kMaxStreams = 64;

  struct CoreState {
    /// Feed state: `window`/`win_pos` hold the current RecordSource window
    /// and the consumer position inside it — the position *is* the peek
    /// lookahead the scheduler uses (pending record = window[win_pos]). The
    /// refill-on-consume invariant in feed_consume keeps "win_pos ==
    /// window.size()" equivalent to "stream exhausted". Trace-backed streams
    /// are fed through `buffer_source` (whole buffer as one window).
    RecordSource* source = nullptr;
    std::span<const TraceRecord> window{};
    std::size_t win_pos = 0;
    BufferCursor buffer_source;
    Cycle clock = 0;
    std::uint32_t outer_iter = 0;  // current outer iteration (last seen)
    bool started = false;
    FillOrigin origin = FillOrigin::kDemand;
    std::optional<RoundSync> sync;
    bool was_gated = false;
    /// Private L1: a tag-only LRU stack, kept across runs so reset() reuses
    /// its storage. Untouched when `l1_hits` supplies the outcomes.
    LruStack l1;
    /// The stream's precomputed L1 outcomes, or null for a live L1.
    const L1HitBitmap* l1_hits = nullptr;
    /// Per-core hw prefetcher pair, held by value (optional only because
    /// CoreState must be default-constructible before reset() configures it).
    std::optional<CorePrefetchers> prefetcher;
    ThreadMetrics metrics;
    // Scheduler/gating memoization (pure caches of values derivable from the
    // state above; recomputed when their inputs change, so behaviour is
    // identical to recomputing every call).
    /// clock + pending record's compute_gap; maintained on every step.
    Cycle next_time = 0;
    std::uint32_t gate_next_round = 0;   // pending outer_iter / round_iters
    std::uint32_t gate_next_outer_seen = ~std::uint32_t{0};
    std::uint32_t gate_leader_round = 0;
    std::uint32_t gate_leader_outer_seen = 0;
    bool gate_leader_started_seen = false;
  };

  static constexpr std::uint64_t kNoPause = std::uint64_t{1} << 32;

  void reset(const std::vector<CoreStream>& streams);

  // The record feed: done / pending (peek, no consume) / consume. The
  // simulator only ever peeks the *pending* record (compute_gap for
  // next_time, outer_iter for round gating), so a one-record-deep peek inside
  // the window is all the scheduler needs.
  [[nodiscard]] static bool feed_done(const CoreState& core) noexcept {
    return core.win_pos >= core.window.size();
  }
  [[nodiscard]] static const TraceRecord& feed_pending(
      const CoreState& core) noexcept {
    return core.window[core.win_pos];
  }
  /// Returns the consumed record *by value*: the refill that re-establishes
  /// the window invariant may overwrite the ring slot a reference would
  /// point into.
  [[nodiscard]] static TraceRecord feed_consume(CoreState& core) {
    const TraceRecord rec = core.window[core.win_pos++];
    if (core.win_pos >= core.window.size()) {
      core.window = core.source->next_window();
      core.win_pos = 0;
    }
    return rec;
  }

  [[nodiscard]] bool gated(CoreState& core) const;
  /// Refresh `core.gate_next_round` from the pending record (call after the
  /// feed position moves).
  void refresh_gate_round(CoreState& core) const;
  /// The scheduler: one round per same-core batch. Returns true when it
  /// stopped because core 0's pending record reached pause_iter_, false
  /// when every stream is done.
  bool run_loop();
  /// Process records of core `id` until the scheduler could pick a different
  /// core: its next-access time reaches limit_lo (rival with a lower id) or
  /// exceeds limit_hi (rival with a higher id), a gate-relevant progress
  /// point passes (`leader_sensitive`: some currently-gated core waits on
  /// this one), the pending record enters a new round of this core's own
  /// sync, core 0's pending record reaches pause_iter_, or the trace ends.
  /// limit_lo = 0 ends the batch after one record.
  void step_batch(CoreId id, Cycle limit_lo, Cycle limit_hi,
                  bool leader_sensitive);
  // The per-record access paths. step_batch is their only caller, so they
  // are forced inline into it (the batched loop and the oracle share it).
  /// Demand path for one record; returns the completion time of the access.
  /// `record` is the record's index in its stream (read only with l1_hits).
  SPF_ALWAYS_INLINE Cycle demand_access(CoreState& core, CoreId id,
                                        const TraceRecord& rec,
                                        std::size_t record, Cycle start);
  /// Software-prefetch path (non-binding, never stalls the core).
  SPF_ALWAYS_INLINE Cycle software_prefetch(CoreState& core, CoreId id,
                                            const TraceRecord& rec,
                                            Cycle start);
  /// Install every completed fill with fill_time <= now into the L2.
  void drain_l2(Cycle now);
  /// Issue hardware-prefetch candidates produced by `core`'s prefetcher.
  SPF_ALWAYS_INLINE void issue_hw_prefetches(CoreState& core, CoreId id,
                                             const TraceRecord& rec,
                                             bool was_l2_miss, Cycle now);

  SimConfig config_;
  Arena* arena_ = nullptr;
  /// Grows to the widest stream set ever run, never shrinks: cores_[i].l1
  /// keeps its storage across runs. Only the first `active_` entries
  /// participate in the current run.
  std::vector<CoreState> cores_;
  std::size_t active_ = 0;
  std::optional<Cache> l2_;
  std::optional<MshrFile> mshr_;
  std::optional<MemoryController> memory_;
  std::optional<PollutionTracker> pollution_;
  /// Engaged only when config_.provenance is set; disengaged (one branch on
  /// the hot paths) otherwise. Purely observational — never feeds back into
  /// timing or replacement, so results are bit-identical either way.
  std::optional<ProvenanceTracker> provenance_;
  std::uint64_t hw_prefetches_issued_ = 0;
  std::vector<MshrEntry> drain_scratch_;
  OccupancySeries occupancy_;
  Cycle next_occupancy_sample_ = 0;
  /// Outer iteration at which core 0 pauses the replay (run_until).
  std::uint64_t pause_iter_ = kNoPause;
};

}  // namespace spf
