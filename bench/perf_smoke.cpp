// perf_smoke — the repo's benchmark trajectory point.
//
// Times the three hot paths the data-layout refactor targets and writes a
// machine-readable BENCH_perf.json:
//
//   materialize  — em3d_ir trace emission (IR interpretation against
//                  VirtualMemory), in IR memory ops per second;
//   replay       — one SP sweep cell over the em3d_ir trace through a
//                  reusable ExperimentContext (helper synthesized inside
//                  replay through the cursor window), in trace accesses per
//                  second; this is the acceptance metric for the hot-path
//                  work. The reps are held to zero trace-record allocations
//                  via trace_hooks;
//   distance_bound_refine — refine_with_helper over the em3d_ir trace (the
//                  streaming TraceCursor pipeline);
//   adaptive     — one continuous controller-driven replay, held to zero
//                  trace-record allocations;
//   sweep        — a small orchestrated 3-workload grid, in cells/second,
//                  through a shared ExperimentContextPool whose trace-memo
//                  hit rate is reported alongside;
//   telemetry    — the same grid replayed memo-warm with the spf::telemetry
//                  session uninstalled vs installed, interleaved per rep; the
//                  overhead is the *median of per-rep on/off ratios* (clamped
//                  at 0 — a negative overhead is measurement noise, not a
//                  speedup), so one scheduling hiccup on either side can't
//                  push the reported number negative or blow it up, and all
//                  sweeps' artifacts are cross-checked identical;
//   provenance   — the same grid replayed memo-warm with
//                  SimConfig::provenance off vs on (interleaved per rep,
//                  median-of-ratios, clamped at 0); lifecycle tracking is an
//                  observer, so both sides' tables are cross-checked
//                  byte-identical to the baseline sweep's.
//
// Every rep of the replay cell and the refinement must reproduce the first
// rep's result (replay_checksum, refine_checksum); a difference exits 1.
//
// Flags: --quick (CI smoke: small inputs, one rep; the telemetry and
// provenance A/Bs still run five pairs), --out=PATH (default
// BENCH_perf.json; "-" or "" = skip the artifact), --reps=N,
// --metrics-out=/--trace-out= (telemetry artifacts), plus the standard
// bench_common knobs (--l2/--assoc/--line/--threads/--scale/--csv).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "spf/common/jsonl.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"
#include "spf/workloads/em3d_ir.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const bench::Scale scale = bench::parse_scale(flags);
  const bool quick = flags.get_bool("quick", false);
  const auto reps =
      static_cast<unsigned>(bench::require_uint(flags, "reps", quick ? 1 : 3));
  const std::string out_path = flags.get("out", "BENCH_perf.json");
  bench::TelemetrySink telemetry_sink(flags, scale, "perf_smoke");
  bench::fail_on_unknown_flags(flags);

  Em3dConfig em3d_cfg = bench::em3d_config(scale);
  if (quick) {
    em3d_cfg.nodes = 2000;
    em3d_cfg.arity = 8;
    em3d_cfg.passes = 1;
  }

  // ---- materialize: IR interpretation emits the em3d trace --------------
  const Em3dWorkload model(em3d_cfg);
  Em3dIr ir = build_em3d_ir(model);
  double materialize_sec = 0.0;
  std::uint64_t ir_ops = 0;
  ir::InterpResult interp;
  for (unsigned r = 0; r < reps; ++r) {
    ir::VirtualMemory vm = ir.memory;  // interpret mutates (stores)
    const auto t0 = Clock::now();
    interp = ir::interpret(ir.program, vm);
    materialize_sec += seconds_since(t0);
    ir_ops += interp.loads + interp.stores;
  }
  const TraceBuffer& trace = interp.trace;

  // ---- replay: one SP sweep cell over the em3d_ir trace ------------------
  SpExperimentConfig cell_cfg;
  cell_cfg.sim.l2 = scale.l2;
  cell_cfg.params = SpParams::from_distance_rp(16, 0.5);
  // The context lives outside the timed region: what a sweep worker amortizes
  // (simulator construction, cache arrays) is setup, not replay. One untimed
  // warm-up brings it to that steady state.
  ExperimentContext replay_ctx;
  (void)replay_ctx.run_sp_once(trace, cell_cfg);
  double replay_sec = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t replay_checksum = 0;
  std::uint64_t fused_record_allocs = 0;
  for (unsigned r = 0; r < reps; ++r) {
    const std::uint64_t allocs_before = trace_hooks::record_allocations();
    const auto t0 = Clock::now();
    const SpRunSummary sp = replay_ctx.run_sp_once(trace, cell_cfg);
    replay_sec += seconds_since(t0);
    fused_record_allocs += trace_hooks::record_allocations() - allocs_before;
    replayed += trace.size();
    if (r == 0) {
      replay_checksum = sp.runtime;
    } else if (sp.runtime != replay_checksum) {
      std::cerr << "perf_smoke: replay is not deterministic (rep 0 runtime "
                << replay_checksum << " vs rep " << r << " " << sp.runtime
                << ")\n";
      return 1;
    }
  }
  // The helper records are synthesized through the fixed ring window, never
  // stored — zero trace-record allocations.
  if (fused_record_allocs != 0) {
    std::cerr << "perf_smoke: fused replay grew trace-record storage "
              << fused_record_allocs << " times (contract: 0)\n";
    return 1;
  }

  // ---- distance_bound_refine: the streaming refinement --------------------
  // The quick trace is small, so pair it with a small L2 the way the quick
  // sweep grid does (the Set-Affinity derivation needs saturated sets).
  const CacheGeometry refine_geo =
      quick ? CacheGeometry(64 << 10, 8, 64) : scale.l2;
  const std::vector<std::uint32_t> refine_starts = {0};
  const DistanceBound base_bound =
      estimate_distance_bound(trace, refine_starts, refine_geo);
  const SpParams refine_params = SpParams::from_distance_rp(16, 0.5);
  double refine_sec = 0.0;
  std::uint64_t refine_checksum = 0;
  for (unsigned r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const DistanceBound refined = refine_with_helper(
        base_bound, trace, refine_starts, refine_params, refine_geo);
    refine_sec += seconds_since(t0);
    const std::uint64_t sum =
        refined.upper_limit + refined.with_helper_min_sa.value_or(0);
    if (r == 0) {
      refine_checksum = sum;
    } else if (sum != refine_checksum) {
      std::cerr << "perf_smoke: refinement is not deterministic (rep 0 "
                << refine_checksum << " vs rep " << r << " " << sum << ")\n";
      return 1;
    }
  }

  // ---- adaptive: one continuous controller-driven replay ----------------
  // The adaptive run shares the fused-replay contract: the helper is
  // synthesized inside the replay and retuned in place at interval
  // boundaries (zero trace-record allocations, hard-checked).
  SpExperimentConfig adaptive_base;  // params stay default: run_adaptive
  adaptive_base.sim.l2 = scale.l2;   // derives them per interval
  AdaptiveConfig acfg;
  acfg.initial_distance = 16;
  acfg.max_distance = std::max(1u, base_bound.upper_limit);
  acfg.interval_iters = 1000;
  double adaptive_sec = 0.0;
  std::uint64_t adaptive_record_allocs = 0;
  AdaptiveRunResult adaptive_run;
  for (unsigned r = 0; r < reps; ++r) {
    const std::uint64_t allocs_before = trace_hooks::record_allocations();
    const auto t0 = Clock::now();
    adaptive_run = replay_ctx.run_adaptive(trace, adaptive_base, acfg);
    adaptive_sec += seconds_since(t0);
    adaptive_record_allocs += trace_hooks::record_allocations() - allocs_before;
  }
  if (adaptive_record_allocs != 0) {
    std::cerr << "perf_smoke: adaptive replay grew trace-record storage "
              << adaptive_record_allocs << " times (contract: 0)\n";
    return 1;
  }

  // ---- sweep: small orchestrated 3-workload grid -------------------------
  orchestrate::SweepSpec spec;
  Em3dConfig se = em3d_cfg;
  McfConfig sm = bench::mcf_config(scale);
  MstConfig st = bench::mst_config(scale);
  // The quick grid must still saturate cache sets (the distance-bound
  // derivation requires it), so it pairs the small workloads with a small
  // 64 KiB L2 rather than the CI-scale geometry.
  CacheGeometry sweep_geo = scale.l2;
  if (quick) {
    sm.nodes = 1000;
    sm.arcs = 6000;
    sm.passes = 1;
    st.vertices = 400;
    st.degree = 8;
    st.buckets = 32;
    sweep_geo = CacheGeometry(64 << 10, 8, 64);
  }
  spec.workloads.push_back(orchestrate::em3d_spec(se));
  spec.workloads.push_back(orchestrate::mcf_spec(sm));
  spec.workloads.push_back(orchestrate::mst_spec(st));
  spec.distances = {1, 2, 4};
  spec.geometries = {sweep_geo};
  orchestrate::SweepOptions opts;
  opts.threads = scale.threads;
  // A shared pool so the sweep resolves workload traces through the trace
  // memo — the reported hit rate is the 9-cell grid's re-emission savings.
  const auto pool = std::make_shared<ExperimentContextPool>(
      orchestrate::resolve_threads(scale.threads));
  opts.pool = pool;
  const auto t0 = Clock::now();
  const orchestrate::SweepResult sweep = orchestrate::run_sweep(spec, opts);
  const double sweep_sec = seconds_since(t0);
  if (sweep.failed_count() != 0) {
    std::cerr << "perf_smoke: " << sweep.failed_count() << " sweep cells failed\n";
    return 1;
  }

  const std::string sweep_csv = sweep.to_csv();

  // ---- telemetry overhead: the same grid, memo-warm, off vs on -----------
  // Off/on runs are interleaved per rep and the overhead is the median of
  // per-rep on/off ratios: a one-sided scheduling hiccup shifts one ratio,
  // not the reported number, and the clamp below keeps "on was faster than
  // off" (pure noise) from reporting a nonsense negative overhead. min-of-
  // reps per side is still exported for context. Both overhead A/Bs run at
  // least kMinOverheadPairs pairs even under --quick: a median of one ratio
  // is a single sample, and on a loaded host one slow side fails the budget.
  constexpr unsigned kMinOverheadPairs = 5;
  const unsigned overhead_pairs = std::max(reps, kMinOverheadPairs);
  telemetry::Session ab_session(orchestrate::resolve_threads(scale.threads) + 1);
  telemetry::Session* on_session =
      telemetry_sink.session() != nullptr ? telemetry_sink.session() : &ab_session;
  double sweep_off_sec = 0.0;
  double sweep_on_sec = 0.0;
  std::vector<double> onoff_ratios;
  onoff_ratios.reserve(overhead_pairs);
  for (unsigned r = 0; r < overhead_pairs; ++r) {
    telemetry::Session* prev = telemetry::install(nullptr);
    auto t_off = Clock::now();
    const orchestrate::SweepResult off = orchestrate::run_sweep(spec, opts);
    const double off_sec = seconds_since(t_off);
    telemetry::install(on_session);
    auto t_on = Clock::now();
    const orchestrate::SweepResult on = orchestrate::run_sweep(spec, opts);
    const double on_sec = seconds_since(t_on);
    telemetry::install(prev);
    if (off.failed_count() != 0 || on.failed_count() != 0) {
      std::cerr << "perf_smoke: telemetry A/B sweep cells failed\n";
      return 1;
    }
    // Recording must never leak into the artifact bytes.
    if (off.to_csv() != sweep_csv || on.to_csv() != sweep_csv) {
      std::cerr << "perf_smoke: sweep artifact changed under telemetry\n";
      return 1;
    }
    if (off_sec > 0) onoff_ratios.push_back(on_sec / off_sec);
    if (r == 0 || off_sec < sweep_off_sec) sweep_off_sec = off_sec;
    if (r == 0 || on_sec < sweep_on_sec) sweep_on_sec = on_sec;
  }
  double telemetry_overhead_pct = 0.0;
  if (!onoff_ratios.empty()) {
    std::sort(onoff_ratios.begin(), onoff_ratios.end());
    const std::size_t n = onoff_ratios.size();
    const double median = n % 2 == 1
                              ? onoff_ratios[n / 2]
                              : 0.5 * (onoff_ratios[n / 2 - 1] + onoff_ratios[n / 2]);
    telemetry_overhead_pct = std::max(0.0, 100.0 * (median - 1.0));
  }

  // ---- provenance overhead: the same grid, memo-warm, off vs on ----------
  // Same protocol as the telemetry A/B: interleaved per rep, median of
  // per-rep on/off ratios, clamped at 0. The provenance-on table/CSV must
  // stay byte-identical to the baseline sweep's — lifecycle tracking is an
  // observer, it rides only in the JSONL suffix (docs/provenance.md) — and
  // the off side re-checks the baseline so a nondeterminism bug can't hide
  // behind the A/B.
  orchestrate::SweepSpec prov_spec = spec;
  prov_spec.provenance = true;
  double sweep_prov_off_sec = 0.0;
  double sweep_prov_on_sec = 0.0;
  bool prov_tables_identical = true;
  std::vector<double> prov_ratios;
  prov_ratios.reserve(overhead_pairs);
  for (unsigned r = 0; r < overhead_pairs; ++r) {
    auto t_off = Clock::now();
    const orchestrate::SweepResult off = orchestrate::run_sweep(spec, opts);
    const double off_sec = seconds_since(t_off);
    auto t_on = Clock::now();
    const orchestrate::SweepResult on = orchestrate::run_sweep(prov_spec, opts);
    const double on_sec = seconds_since(t_on);
    if (off.failed_count() != 0 || on.failed_count() != 0) {
      std::cerr << "perf_smoke: provenance A/B sweep cells failed\n";
      return 1;
    }
    if (off.to_csv() != sweep_csv || on.to_csv() != sweep_csv) {
      prov_tables_identical = false;
    }
    if (off_sec > 0) prov_ratios.push_back(on_sec / off_sec);
    if (r == 0 || off_sec < sweep_prov_off_sec) sweep_prov_off_sec = off_sec;
    if (r == 0 || on_sec < sweep_prov_on_sec) sweep_prov_on_sec = on_sec;
  }
  if (!prov_tables_identical) {
    std::cerr << "perf_smoke: sweep artifact changed under provenance\n";
    return 1;
  }
  double provenance_overhead_pct = 0.0;
  if (!prov_ratios.empty()) {
    std::sort(prov_ratios.begin(), prov_ratios.end());
    const std::size_t n = prov_ratios.size();
    const double median =
        n % 2 == 1 ? prov_ratios[n / 2]
                   : 0.5 * (prov_ratios[n / 2 - 1] + prov_ratios[n / 2]);
    provenance_overhead_pct = std::max(0.0, 100.0 * (median - 1.0));
  }

  const double materialize_ops_s =
      materialize_sec > 0 ? static_cast<double>(ir_ops) / materialize_sec : 0;
  const double replay_acc_s =
      replay_sec > 0 ? static_cast<double>(replayed) / replay_sec : 0;
  const double cells_s =
      sweep_sec > 0 ? static_cast<double>(sweep.cells.size()) / sweep_sec : 0;
  const ExperimentContextPool::TraceMemoStats memo = pool->trace_memo_stats();

  JsonObject obj;
  obj.add("bench", "perf_smoke")
      .add("quick", quick)
      .add("reps", static_cast<std::uint64_t>(reps))
      .add("l2", scale.l2.to_string())
      .add("em3d_nodes", em3d_cfg.nodes)
      .add("em3d_arity", em3d_cfg.arity)
      .add("trace_records", static_cast<std::uint64_t>(trace.size()))
      .add("materialize_ir_ops_per_sec", materialize_ops_s)
      .add("materialize_sec", materialize_sec / reps)
      .add("replay_accesses_per_sec", replay_acc_s)
      .add("replay_sec_per_cell", replay_sec / reps)
      .add("replay_fused_record_allocations", fused_record_allocs)
      .add("refine_streaming_sec", refine_sec / reps)
      .add("refine_upper_limit", base_bound.upper_limit)
      .add("adaptive_sec", adaptive_sec / reps)
      .add("adaptive_intervals", adaptive_run.intervals)
      .add("adaptive_trajectory_len",
           static_cast<std::uint64_t>(adaptive_run.distance_trajectory.size()))
      .add("adaptive_initial_distance", adaptive_run.initial_distance)
      .add("adaptive_final_distance", adaptive_run.final_distance())
      .add("adaptive_distance_cap", acfg.max_distance)
      .add("adaptive_record_allocations", adaptive_record_allocs)
      .add("sweep_cells", static_cast<std::uint64_t>(sweep.cells.size()))
      .add("sweep_cells_per_sec", cells_s)
      .add("sweep_sec", sweep_sec)
      .add("sweep_trace_memo_hits", memo.hits)
      .add("sweep_trace_memo_misses", memo.misses)
      .add("sweep_trace_memo_hit_rate", memo.hit_rate())
      .add("sweep_telemetry_off_sec", sweep_off_sec)
      .add("sweep_telemetry_on_sec", sweep_on_sec)
      .add("telemetry_overhead_pct", telemetry_overhead_pct)
      .add("telemetry_compiled", SPF_TELEMETRY != 0)
      .add("sweep_provenance_off_sec", sweep_prov_off_sec)
      .add("sweep_provenance_on_sec", sweep_prov_on_sec)
      .add("provenance_overhead_pct", provenance_overhead_pct)
      .add("provenance_tables_identical", prov_tables_identical)
      .add("replay_checksum", replay_checksum)
      .add("refine_checksum", refine_checksum);

  std::cout << obj << std::flush;
  if (!out_path.empty() && out_path != "-") {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    out << obj;
  }
  return 0;
}
