// Declarative sweep orchestration over the SP experiment space.
//
// A SweepSpec describes a grid: workloads × L2 geometries × helper kinds ×
// prefetch ratios × prefetch distances × distance controllers. run_sweep()
// expands the grid into cells in a fixed nested order (workload ▸ geometry ▸
// helper ▸ RP ▸ distance ▸ controller), fans the per-cell simulations out
// over a thread pool, and
// collects results into slots indexed by cell id — so the aggregated table /
// CSV / JSONL artifacts are byte-identical regardless of thread count or
// completion order (the simulator itself is deterministic; see
// docs/simulator.md).
//
// Work sharing: the trace is emitted once per workload, and the baseline
// (original, no helper) run plus the Set-Affinity distance bound are
// computed once per workload × geometry and shared by every cell in that
// plane.
//
// Failure semantics: an exception inside any job (trace emission, bound
// analysis, baseline, or cell simulation) marks only the dependent cells
// failed — the sweep always completes and reports per-cell errors. A plane
// whose working set fits in the L2 fails that way: it has no bound. See
// docs/orchestrator.md.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "spf/common/csv.hpp"
#include "spf/core/adaptive.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/orchestrate/pool.hpp"
#include "spf/trace/trace.hpp"
#include "spf/trace/trace_source.hpp"

namespace spf {
class ExperimentContextPool;
}  // namespace spf

namespace spf::orchestrate {

enum class HelperKind : std::uint8_t {
  kBlockingLoad,        // the paper's helper: ordinary loads, self-throttling
  kPrefetchInstruction  // leaf dereferences as non-binding prefetches
};

[[nodiscard]] const char* to_string(HelperKind kind) noexcept;

/// How a cell picks its prefetch distance over the run.
enum class ControllerKind : std::uint8_t {
  kStatic,        // fixed A_SKI for the whole run (the paper's SP cells)
  kAdaptiveAimd,  // AIMD feedback walk from the cell's distance, free range
  kAdaptiveCapped  // AIMD walk with max_distance clamped to the cell's
                   // Set-Affinity bound (the paper's thesis as a controller)
};

[[nodiscard]] const char* to_string(ControllerKind kind) noexcept;

/// A workload's emitted trace plus the invocation boundaries the Set-Affinity
/// analysis needs — now defined at the trace layer (spf/trace/trace_source.hpp)
/// so the ExperimentContextPool trace memo can share the type.
using spf::TraceSource;

struct WorkloadSpec {
  std::string name;
  /// Trace-memoization key. When non-empty, run_sweep fetches the source
  /// through the experiment-context pool's trace memo
  /// (ExperimentContextPool::trace_for): the trace is emitted once per key
  /// and every plane/cell lookup — and every later sweep sharing the pool via
  /// SweepOptions::pool — reuses it. The key must encode every config field
  /// that affects the emitted trace (the ready-made specs in
  /// workload_specs.hpp do); empty disables memoization for this workload.
  std::string memo_key;
  /// Emits the trace; runs as one job, concurrently with other workloads.
  /// Must be deterministic and must not share mutable state with other specs.
  /// The sweep materializes the result once and shares the immutable source
  /// across every grid cell — returning shared_ptr keeps multi-million-record
  /// traces from being deep-copied per call. Returning nullptr is an error
  /// (treated like a thrown emission failure).
  std::function<std::shared_ptr<const TraceSource>()> make;
};

/// Wraps an already-emitted trace (no re-emission inside the sweep; the spec
/// holds one shared immutable copy handed out by every make() call).
[[nodiscard]] WorkloadSpec from_source(std::string name, TraceSource source);

struct SweepSpec {
  std::vector<WorkloadSpec> workloads;
  /// Explicit A_SKI values. Empty -> auto: auto_distances() around the
  /// Set-Affinity bound of each workload × geometry plane.
  std::vector<std::uint32_t> distances;
  std::vector<double> rps = {0.5};
  std::vector<CacheGeometry> geometries = {CacheGeometry(1 << 20, 16, 64)};
  std::vector<HelperKind> helpers = {HelperKind::kBlockingLoad};
  /// Distance-controller axis, innermost in the grid order. Adaptive cells
  /// replay the trace once through ExperimentContext::run_adaptive, retuned
  /// at every interval boundary, and record the controller's distance
  /// trajectory in CellResult::adaptive; static cells are the classic
  /// fixed-distance SP runs.
  std::vector<ControllerKind> controllers = {ControllerKind::kStatic};
  /// Shared controller policy for adaptive cells. initial_distance and rp
  /// are overwritten per cell (from the cell's distance / RP axes);
  /// kAdaptiveCapped additionally clamps max_distance to the cell's
  /// Set-Affinity bound.
  AdaptiveConfig adaptive{};
  /// Track prefetch-lifecycle provenance (SimConfig::provenance) in every
  /// baseline and cell run. Each ok cell's summaries then carry a
  /// ProvenanceSummary and the JSONL rows grow `prov_*` fate counts and
  /// histograms (appended after all other fields; rows are byte-identical to
  /// a provenance-off sweep up to that suffix). Observation-only: tables,
  /// CSV, and every simulation metric are byte-identical on or off.
  bool provenance = false;

  /// Structural check of the grid description. Returns the empty string when
  /// the spec can run, otherwise a one-line description of the first problem
  /// found (empty workloads / rps / geometries / helpers / controllers, an RP
  /// outside (0, 1], a duplicate or zero explicit distance, a duplicate
  /// controller, an invalid adaptive policy when an adaptive controller is
  /// present; a bad geometry never gets here, CacheGeometry's constructor
  /// throws). run_sweep() calls this and throws std::invalid_argument on a
  /// non-empty result; CLI drivers call it directly to turn flag mistakes
  /// into usage errors (exit 2) instead of a mid-sweep crash.
  [[nodiscard]] std::string validate() const;
};

struct SweepCell {
  std::size_t id = 0;
  std::string workload;
  CacheGeometry l2 = CacheGeometry(1 << 20, 16, 64);
  HelperKind helper = HelperKind::kBlockingLoad;
  double rp = 0.5;
  std::uint32_t distance = 0;  // A_SKI (adaptive cells: the starting distance)
  /// Set-Affinity upper limit of this cell's workload × geometry plane.
  std::uint32_t bound_upper = 0;
  ControllerKind controller = ControllerKind::kStatic;
};

/// Distance-walk evidence an adaptive cell carries alongside its metrics.
struct AdaptiveCellStats {
  std::vector<std::uint32_t> trajectory;  // distance per interval, in order
  std::uint32_t final_distance = 0;
  double mean_distance = 0.0;
  std::uint64_t intervals = 0;
  std::uint64_t increases = 0;
  std::uint64_t decreases = 0;
  /// Effective max_distance the controller ran with (for kAdaptiveCapped,
  /// the Set-Affinity clamp; otherwise the spec's policy ceiling).
  std::uint32_t distance_cap = 0;
};

struct CellResult {
  SweepCell cell;
  bool ok = false;
  std::string error;  // failure reason when !ok
  /// Engaged exactly when ok — a failed cell has no numbers to misread.
  std::optional<SpComparison> cmp;
  /// Engaged exactly when ok and the cell's controller is adaptive.
  std::optional<AdaptiveCellStats> adaptive;
};

struct SweepResult {
  /// One slot per cell, in grid order (ids are dense and ascending).
  std::vector<CellResult> cells;

  [[nodiscard]] std::size_t failed_count() const;
  /// Aggregated artifact: one row per cell, grid order, failed cells
  /// rendered with "-" metrics and the error in the status column.
  [[nodiscard]] Table to_table() const;
  [[nodiscard]] std::string to_csv() const;
  /// One JSON object per cell, grid order.
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] std::string to_jsonl() const;
};

struct SweepOptions {
  /// 0 = hardware concurrency; 1 = legacy serial path on the caller thread.
  unsigned threads = 0;
  ProgressFn progress;
  /// Runs on the worker thread immediately before each cell's simulation; a
  /// throw marks that cell failed. Seam for fault-injection tests and
  /// cooperative cancellation.
  std::function<void(const SweepCell&)> cell_hook;
  /// Shared experiment-context pool. When set, run_sweep leases worker
  /// contexts from it (instead of a private per-sweep pool) and keyed
  /// workloads resolve through its trace memo — so consecutive sweeps over
  /// the same workloads stop re-emitting their traces. The pool outlives the
  /// sweep; results are byte-identical either way.
  std::shared_ptr<ExperimentContextPool> pool;
};

/// The auto distance ladder (SweepSpec::distances empty): 1/8, 1/4, 1/2,
/// 3/4, 1, 1.5, 2, 4 and 8 times `bound`, truncated, zeros and repeats
/// dropped; {1} when nothing is left.
[[nodiscard]] std::vector<std::uint32_t> auto_distances(std::uint32_t bound);

/// Throws std::invalid_argument when spec.validate() reports a problem.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const SweepOptions& opts = {});

}  // namespace spf::orchestrate
