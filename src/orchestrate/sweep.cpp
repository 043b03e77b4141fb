#include "spf/orchestrate/sweep.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "spf/common/jsonl.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/sim/l1_hits.hpp"
#include "spf/telemetry/telemetry.hpp"

namespace spf::orchestrate {

std::vector<std::uint32_t> auto_distances(std::uint32_t bound) {
  std::vector<std::uint32_t> d;
  for (const double f : {0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0}) {
    const auto v = static_cast<std::uint32_t>(f * bound);
    if (v >= 1 && (d.empty() || v != d.back())) d.push_back(v);
  }
  if (d.empty()) d.push_back(1);
  return d;
}

namespace {

/// Baseline + distance bound shared by every cell of one workload × geometry
/// plane.
struct Plane {
  DistanceBound bound;
  SpRunSummary baseline;
};

}  // namespace

const char* to_string(HelperKind kind) noexcept {
  switch (kind) {
    case HelperKind::kBlockingLoad: return "blocking-load";
    case HelperKind::kPrefetchInstruction: return "prefetch-instruction";
  }
  return "?";
}

const char* to_string(ControllerKind kind) noexcept {
  switch (kind) {
    case ControllerKind::kStatic: return "static";
    case ControllerKind::kAdaptiveAimd: return "adaptive-aimd";
    case ControllerKind::kAdaptiveCapped: return "adaptive-capped";
  }
  return "?";
}

std::string SweepSpec::validate() const {
  if (workloads.empty()) return "sweep spec has no workloads";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    if (!workloads[i].make) {
      return "workload '" + workloads[i].name + "' has no make() function";
    }
  }
  if (rps.empty()) return "sweep spec has no prefetch ratios (rps)";
  for (const double rp : rps) {
    if (!(rp > 0.0) || rp > 1.0) {
      std::ostringstream out;
      out << "prefetch ratio " << rp << " is outside (0, 1]";
      return out.str();
    }
  }
  if (geometries.empty()) return "sweep spec has no L2 geometries";
  if (helpers.empty()) return "sweep spec has no helper kinds";
  std::unordered_set<std::uint32_t> seen;
  for (const std::uint32_t d : distances) {
    if (d == 0) return "explicit distance 0 is invalid (A_SKI must be >= 1)";
    if (!seen.insert(d).second) {
      return "duplicate explicit distance " + std::to_string(d);
    }
  }
  if (controllers.empty()) return "sweep spec has no controllers";
  std::unordered_set<std::uint8_t> seen_controllers;
  bool any_adaptive = false;
  for (const ControllerKind c : controllers) {
    if (!seen_controllers.insert(static_cast<std::uint8_t>(c)).second) {
      return std::string("duplicate controller ") + to_string(c);
    }
    if (c != ControllerKind::kStatic) any_adaptive = true;
  }
  if (any_adaptive) {
    // initial_distance / rp are per-cell overrides, so only the policy
    // fields of spec.adaptive need to hold; validate() covers them all, and
    // a per-cell clamp keeps the overrides legal.
    if (const std::string problem = adaptive.validate(); !problem.empty()) {
      return "adaptive controller policy: " + problem;
    }
  }
  return "";
}

WorkloadSpec from_source(std::string name, TraceSource source) {
  WorkloadSpec spec;
  spec.name = std::move(name);
  spec.make = [src = std::make_shared<const TraceSource>(std::move(source))]() {
    return src;
  };
  return spec;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  if (const std::string problem = spec.validate(); !problem.empty()) {
    throw std::invalid_argument("invalid sweep spec: " + problem);
  }
  const std::size_t n_workloads = spec.workloads.size();
  const std::size_t n_geoms = spec.geometries.size();
  const unsigned threads = resolve_threads(opts.threads);
  // One reusable simulation context per worker: leased per job, so caches,
  // MSHR file, arena chunks and the helper-trace scratch survive from cell
  // to cell instead of being rebuilt thousands of times. A caller-provided
  // shared pool additionally carries its trace memo (and warm contexts)
  // across sweeps.
  std::shared_ptr<ExperimentContextPool> pool = opts.pool;
  if (!pool) pool = std::make_shared<ExperimentContextPool>(threads);
  ExperimentContextPool& contexts = *pool;

  // Phase 1: resolve each workload's trace (one job per workload). Keyed
  // workloads go through the pool's memo — emitted at most once per key for
  // the pool's lifetime; unkeyed ones emit here. Either way the shared_ptr
  // is the single copy every plane and cell reads from. The same job
  // computes the trace's main-core L1 outcome, which depends on the trace
  // alone, so the baseline and every cell of every plane read one bitmap
  // instead of replaying the L1 each. The bitmaps live for this call only.
  std::vector<std::shared_ptr<const TraceSource>> sources(n_workloads);
  std::vector<L1HitBitmap> l1_hits(n_workloads);
  const auto trace_outcomes =
      run_indexed(n_workloads, threads, [&](std::size_t w) {
        SPF_SPAN("trace-materialize", "workload", w);
        sources[w] =
            contexts.trace_for(spec.workloads[w].memo_key, spec.workloads[w].make);
        l1_hits[w] =
            L1HitBitmap::compute(sources[w]->trace, SpExperimentConfig{}.sim.l1);
      });

  // Planes and cells of a keyed workload re-fetch the source through the
  // memo — a map lookup against the already-emitted entry — so the memo's
  // hit statistics count every consumer that skipped a re-emission. Callers
  // must have verified the workload's phase-1 outcome first (a failed keyed
  // emission is erased from the memo, and re-fetching it would re-emit).
  auto source_for = [&](std::size_t w) -> std::shared_ptr<const TraceSource> {
    const WorkloadSpec& workload = spec.workloads[w];
    return workload.memo_key.empty()
               ? sources[w]
               : contexts.trace_for(workload.memo_key, workload.make);
  };

  // Phase 2: per-plane baseline run + Set-Affinity bound.
  const std::size_t n_planes = n_workloads * n_geoms;
  std::vector<Plane> planes(n_planes);
  const auto plane_outcomes = run_indexed(
      n_planes, threads, [&](std::size_t p) {
        SPF_SPAN("plane", "plane", p);
        const std::size_t w = p / n_geoms;
        const std::size_t g = p % n_geoms;
        if (!trace_outcomes[w].ok) {
          throw std::runtime_error("workload '" + spec.workloads[w].name +
                                   "' failed: " + trace_outcomes[w].error);
        }
        const std::shared_ptr<const TraceSource> src_ptr = source_for(w);
        const TraceSource& src = *src_ptr;
        Plane& plane = planes[p];
        plane.bound = estimate_distance_bound(src.trace, src.invocation_starts,
                                              spec.geometries[g]);
        SpExperimentConfig cfg;
        cfg.sim.l2 = spec.geometries[g];
        cfg.sim.provenance = spec.provenance;
        plane.baseline =
            contexts.acquire()->run_original(src.trace, cfg, &l1_hits[w]);
      });

  // Phase 3: expand the grid in fixed nested order. Cells of a failed plane
  // are materialized anyway (auto mode gets a single placeholder distance)
  // so the artifact shape — and the cell ids — stay deterministic.
  std::vector<SweepCell> cells;
  std::vector<std::size_t> cell_plane;
  std::vector<std::string> cell_inherited;
  for (std::size_t w = 0; w < n_workloads; ++w) {
    for (std::size_t g = 0; g < n_geoms; ++g) {
      const std::size_t p = w * n_geoms + g;
      const bool plane_ok = plane_outcomes[p].ok;
      std::vector<std::uint32_t> distances = spec.distances;
      if (distances.empty()) {
        distances = plane_ok ? auto_distances(planes[p].bound.upper_limit)
                             : std::vector<std::uint32_t>{0};
      }
      for (const HelperKind helper : spec.helpers) {
        for (const double rp : spec.rps) {
          for (const std::uint32_t distance : distances) {
            for (const ControllerKind controller : spec.controllers) {
              SweepCell cell;
              cell.id = cells.size();
              cell.workload = spec.workloads[w].name;
              cell.l2 = spec.geometries[g];
              cell.helper = helper;
              cell.rp = rp;
              cell.distance = distance;
              cell.bound_upper = plane_ok ? planes[p].bound.upper_limit : 0;
              cell.controller = controller;
              cells.push_back(cell);
              cell_plane.push_back(p);
              cell_inherited.push_back(plane_ok ? "" : plane_outcomes[p].error);
            }
          }
        }
      }
    }
  }

  // Phase 4: one SP simulation per cell, results into id-indexed slots.
  SweepResult result;
  result.cells.resize(cells.size());
  const auto cell_outcomes = run_indexed(
      cells.size(), threads,
      [&](std::size_t i) {
        const SweepCell& cell = cells[i];
        SPF_SPAN("cell", "id", cell.id);
        if (!cell_inherited[i].empty()) {
          throw std::runtime_error(cell_inherited[i]);
        }
        if (opts.cell_hook) opts.cell_hook(cell);
        const std::size_t p = cell_plane[i];
        const std::size_t w = p / n_geoms;
        const std::shared_ptr<const TraceSource> src_ptr = source_for(w);
        const TraceSource& src = *src_ptr;
        SpExperimentConfig cfg;
        cfg.sim.l2 = cell.l2;
        cfg.sim.provenance = spec.provenance;
        cfg.helper.use_prefetch_instructions =
            cell.helper == HelperKind::kPrefetchInstruction;
        SpComparison cmp;
        cmp.original = planes[p].baseline;
        if (cell.controller == ControllerKind::kStatic) {
          cfg.params = SpParams::from_distance_rp(cell.distance, cell.rp);
          cmp.sp =
              contexts.acquire()->run_sp_once(src.trace, cfg, &l1_hits[w]);
        } else {
          // Adaptive cells leave cfg.params default — run_adaptive derives
          // SpParams per interval from the controller's distance walk.
          AdaptiveConfig acfg = spec.adaptive;
          acfg.initial_distance = cell.distance;
          acfg.rp = cell.rp;
          if (cell.controller == ControllerKind::kAdaptiveCapped &&
              cell.bound_upper > 0) {
            acfg.max_distance = std::max(
                acfg.min_distance,
                std::min(acfg.max_distance, cell.bound_upper));
          }
          const AdaptiveRunResult run = contexts.acquire()->run_adaptive(
              src.trace, cfg, acfg, &l1_hits[w]);
          cmp.sp = run.aggregate;
          AdaptiveCellStats stats;
          stats.trajectory = run.distance_trajectory;
          stats.final_distance = run.final_distance();
          stats.mean_distance = run.mean_distance();
          stats.intervals = run.intervals;
          stats.increases = run.increases;
          stats.decreases = run.decreases;
          stats.distance_cap = acfg.max_distance;
          result.cells[i].adaptive = std::move(stats);
        }
        result.cells[i].cmp = cmp;  // engaged only when the run succeeded
      },
      opts.progress);

  std::size_t failed = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.cells[i].cell = cells[i];
    result.cells[i].ok = cell_outcomes[i].ok;
    result.cells[i].error = cell_outcomes[i].error;
    if (!cell_outcomes[i].ok) ++failed;
  }
  // Counted once on the caller's lane after the joins — deterministic totals
  // regardless of which worker ran which cell.
  telemetry::count(telemetry::Counter::kSweepCells, cells.size() - failed);
  telemetry::count(telemetry::Counter::kSweepCellsFailed, failed);
  return result;
}

std::size_t SweepResult::failed_count() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (!c.ok) ++n;
  }
  return n;
}

Table SweepResult::to_table() const {
  SPF_SPAN("aggregate");
  Table t({"workload", "L2", "helper", "controller", "RP", "A_SKI",
           "vs bound", "status", "Normalized_Runtime",
           "Normalized_MemoryAccesses", "Normalized_HotMisses",
           "dTotally_hit(%)", "dTotally_miss(%)", "dPartially_hit(%)",
           "pollution"});
  for (const auto& c : cells) {
    t.row()
        .add(c.cell.workload)
        .add(c.cell.l2.to_string())
        .add(to_string(c.cell.helper))
        .add(to_string(c.cell.controller))
        .add(c.cell.rp, 2)
        .add(static_cast<std::uint64_t>(c.cell.distance));
    if (!c.ok) {
      t.add("-").add("failed: " + c.error);
      for (int i = 0; i < 7; ++i) t.add("-");
      continue;
    }
    t.add(c.cell.distance < c.cell.bound_upper ? "within" : "beyond")
        .add("ok")
        .add(c.cmp->norm_runtime(), 3)
        .add(c.cmp->norm_memory_accesses(), 3)
        .add(c.cmp->norm_hot_misses(), 3)
        .add(100.0 * c.cmp->delta_totally_hit(), 2)
        .add(100.0 * c.cmp->delta_totally_miss(), 2)
        .add(100.0 * c.cmp->delta_partially_hit(), 2)
        .add(c.cmp->sp.pollution.total_pollution());
  }
  return t;
}

std::string SweepResult::to_csv() const { return to_table().to_csv(); }

void SweepResult::write_jsonl(std::ostream& out) const {
  SPF_SPAN("aggregate");
  for (const auto& c : cells) {
    JsonObject obj;
    obj.add("id", static_cast<std::uint64_t>(c.cell.id))
        .add("workload", c.cell.workload)
        .add("l2", c.cell.l2.to_string())
        .add("l2_bytes", c.cell.l2.size_bytes())
        .add("assoc", c.cell.l2.ways())
        .add("line", c.cell.l2.line_bytes())
        .add("helper", to_string(c.cell.helper))
        .add("controller", to_string(c.cell.controller))
        .add("rp", c.cell.rp)
        .add("distance", c.cell.distance)
        .add("bound_upper", c.cell.bound_upper)
        .add("within_bound", c.cell.distance < c.cell.bound_upper)
        .add("ok", c.ok);
    if (!c.ok) {
      obj.add("error", c.error);
      out << obj;
      continue;
    }
    obj.add("norm_runtime", c.cmp->norm_runtime())
        .add("norm_memory_accesses", c.cmp->norm_memory_accesses())
        .add("norm_hot_misses", c.cmp->norm_hot_misses())
        .add("delta_totally_hit", c.cmp->delta_totally_hit())
        .add("delta_totally_miss", c.cmp->delta_totally_miss())
        .add("delta_partially_hit", c.cmp->delta_partially_hit())
        .add("original_runtime", c.cmp->original.runtime)
        .add("sp_runtime", c.cmp->sp.runtime)
        .add("helper_finish", c.cmp->sp.helper_finish)
        .add("pollution_total", c.cmp->sp.pollution.total_pollution())
        .add("pollution_rate",
             c.cmp->sp.l2_lookups == 0
                 ? 0.0
                 : static_cast<double>(c.cmp->sp.pollution.total_pollution()) /
                       static_cast<double>(c.cmp->sp.l2_lookups));
    if (c.adaptive) {
      std::string trajectory = "[";
      for (std::size_t i = 0; i < c.adaptive->trajectory.size(); ++i) {
        if (i != 0) trajectory += ",";
        trajectory += std::to_string(c.adaptive->trajectory[i]);
      }
      trajectory += "]";
      obj.add("final_distance", c.adaptive->final_distance)
          .add("mean_distance", c.adaptive->mean_distance)
          .add("intervals", c.adaptive->intervals)
          .add("adaptive_increases", c.adaptive->increases)
          .add("adaptive_decreases", c.adaptive->decreases)
          .add("distance_cap", c.adaptive->distance_cap)
          .add_raw("trajectory", trajectory);
    }
    if (c.cmp->sp.provenance.enabled) {
      // Appended after every other field: a provenance-on row is the
      // provenance-off row plus this suffix, which is what the off/on
      // differential test pins.
      const ProvenanceSummary& p = c.cmp->sp.provenance;
      const auto hist = [](const auto& buckets) {
        std::string arr = "[";
        for (std::size_t i = 0; i < buckets.size(); ++i) {
          if (i != 0) arr += ",";
          arr += std::to_string(buckets[i]);
        }
        arr += "]";
        return arr;
      };
      obj.add("prov_tracked_fills", p.tracked_fills)
          .add("prov_helper_fills", p.helper_fills)
          .add("prov_hardware_fills", p.hardware_fills)
          .add("prov_used_timely", p.used_timely)
          .add("prov_used_late", p.used_late)
          .add("prov_evicted_unused", p.evicted_unused)
          .add("prov_polluting", p.polluting)
          .add("prov_resident_unused", p.resident_unused)
          .add("prov_reuse_confirms", p.reuse_confirms)
          .add("prov_late_confirms", p.late_pollution_confirms)
          .add("prov_polluted_sets", p.polluted_sets)
          .add("prov_timely_rate", p.timely_rate())
          .add("prov_fill_to_use_mean", p.fill_to_use_mean())
          .add_raw("prov_fill_to_use_hist", hist(p.fill_to_use))
          .add_raw("prov_victim_reuse_hist", hist(p.victim_reuse))
          .add_raw("prov_set_heatmap", hist(p.set_heatmap));
    }
    out << obj;
  }
}

std::string SweepResult::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

}  // namespace spf::orchestrate
