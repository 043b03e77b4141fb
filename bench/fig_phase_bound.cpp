// fig_phase_bound — whole-run vs per-phase Set-Affinity capping ablation.
//
// Runs the (workload × A_SKI × controller) grid through
// spf::orchestrate::run_sweep with the phase-detection axis engaged: every
// plane's Set-Affinity profile is segmented into phases by the incremental
// analyzer (docs/method.md), and the controller axis compares adaptive-capped
// (one whole-run bound clamps the AIMD walk for the entire run) against
// adaptive-phase-capped (the walk is re-clamped to the active phase's bound
// at each interval boundary). The JSONL artifact carries, per adaptive cell,
// the phase-bound schedule, every re-clamp event, and the full distance
// trajectory, so one file answers "when the working set shifts mid-run, does
// per-phase capping cut pollution that the whole-run bound cannot see".
// Artifacts are byte-identical at any --threads value (slot-indexed
// aggregation; see docs/orchestrator.md).
//
// Flags (all optional; argument-free = CI-scale ablation over
// em3d,em3d-late,mcf,mst):
//   --workloads=em3d,em3d-late,mcf,mst  comma list (default all four;
//                                em3d-late is the late-tight-phase fixture —
//                                reduced-arity prelude passes, full-arity
//                                pressured pass last — where per-phase
//                                capping can relax the quiet prelude)
//   --controllers=capped,phase-capped  controller axis (default both; also
//                                accepts static and aimd for context rows)
//   --distances=1,2,4,8          explicit starting A_SKI list (default:
//                                auto ladder around each plane's bound)
//   --rps=0.5                    prefetch ratios (default 0.5)
//   --interval=N                 controller observation interval in outer
//                                iterations (default 1000)
//   --max-distance=N             AIMD ceiling before any bound clamp
//                                (default 1024)
//   --phase-window=N             phase-detection window in outer iterations
//                                (default 64)
//   --phase-hysteresis=X         relative EMA shift that opens a new phase
//                                (default 0.5)
//   --phase-bounds=BOOL          keep phase-capped in the default controller
//                                axis (default true; =false degenerates to a
//                                whole-run-capped-only run for A/B diffing)
//   --jsonl=PATH                 JSONL artifact (- = stdout)
//   --threads=N                  0 = hardware concurrency, 1 = serial
//   --metrics-out= / --trace-out=  telemetry artifacts (affinity.phase spans
//                                + affinity.bound counter track)
//   --scale=paper, --l2=, --assoc=, --line=, --csv  as in every bench binary
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const bench::Scale scale = bench::parse_scale(flags);

  orchestrate::SweepSpec spec;
  for (const auto& name :
       split(flags.get("workloads", "em3d,em3d-late,mcf,mst"), ',')) {
    if (name == "em3d") {
      spec.workloads.push_back(orchestrate::em3d_spec(bench::em3d_config(scale)));
    } else if (name == "em3d-late") {
      spec.workloads.push_back(orchestrate::em3d_spec(
          bench::em3d_late_config(scale), "em3d-late"));
    } else if (name == "mcf") {
      spec.workloads.push_back(orchestrate::mcf_spec(bench::mcf_config(scale)));
    } else if (name == "mst") {
      spec.workloads.push_back(orchestrate::mst_spec(bench::mst_config(scale)));
    } else {
      std::cerr << "unknown workload '" << name
                << "' (em3d|em3d-late|mcf|mst)\n";
      return 2;
    }
  }
  // --phase-bounds=false drops phase-capped from the *default* axis so the
  // same command line can be A/B-diffed; an explicit --controllers list is
  // taken verbatim either way.
  const bool phase_bounds = bench::require_bool(flags, "phase-bounds", true);
  const std::string default_controllers =
      phase_bounds ? "capped,phase-capped" : "capped";
  spec.controllers.clear();
  for (const auto& c :
       split(flags.get("controllers", default_controllers), ',')) {
    if (c == "static") {
      spec.controllers.push_back(orchestrate::ControllerKind::kStatic);
    } else if (c == "aimd") {
      spec.controllers.push_back(orchestrate::ControllerKind::kAdaptiveAimd);
    } else if (c == "capped") {
      spec.controllers.push_back(orchestrate::ControllerKind::kAdaptiveCapped);
    } else if (c == "phase-capped") {
      spec.controllers.push_back(
          orchestrate::ControllerKind::kAdaptivePhaseCapped);
    } else {
      std::cerr << "unknown controller '" << c
                << "' (static|aimd|capped|phase-capped)\n";
      return 2;
    }
  }
  for (const auto& d : split(flags.get("distances", ""), ',')) {
    std::uint32_t dist = 0;
    if (!bench::parse_u32(d, dist)) {
      std::cerr << "bad --distances value '" << d << "' (want unsigned int)\n";
      return 2;
    }
    spec.distances.push_back(dist);
  }
  spec.rps.clear();
  for (const auto& r : split(flags.get("rps", "0.5"), ',')) {
    double rp = 0.0;
    if (!bench::parse_double(r, rp)) {
      std::cerr << "bad --rps value '" << r << "' (want number)\n";
      return 2;
    }
    spec.rps.push_back(rp);
  }
  spec.geometries = {scale.l2};
  spec.adaptive.interval_iters = static_cast<std::uint32_t>(
      bench::require_uint(flags, "interval", 1000));
  spec.adaptive.max_distance = static_cast<std::uint32_t>(
      bench::require_uint(flags, "max-distance", 1024));
  spec.phase.window_iters = static_cast<std::uint32_t>(
      bench::require_uint(flags, "phase-window", spec.phase.window_iters));
  spec.phase.hysteresis =
      bench::require_double(flags, "phase-hysteresis", spec.phase.hysteresis);
  const std::string jsonl_path = flags.get("jsonl", "");
  // Constructed before the unknown-flag check: the sink consumes
  // --metrics-out=/--trace-out= and installs the telemetry session the sweep
  // (and the per-phase affinity spans) record into.
  bench::TelemetrySink telemetry_sink(flags, scale, "fig_phase_bound");
  bench::fail_on_unknown_flags(flags);

  if (const std::string problem = spec.validate(); !problem.empty()) {
    std::cerr << "invalid sweep: " << problem << "\n";
    return 2;
  }

  // Open the artifact before the (potentially long) sweep so a bad path
  // fails in milliseconds, not after the last cell.
  std::ofstream jsonl_file;
  if (!jsonl_path.empty() && jsonl_path != "-") {
    jsonl_file.open(jsonl_path);
    if (!jsonl_file) {
      std::cerr << "cannot open " << jsonl_path << "\n";
      return 1;
    }
  }

  orchestrate::SweepOptions opts;
  opts.threads = scale.threads;
  opts.progress = orchestrate::stderr_progress("  cells");
  const orchestrate::SweepResult result = orchestrate::run_sweep(spec, opts);

  if (jsonl_path == "-") {
    result.write_jsonl(std::cout);
  } else {
    if (jsonl_file.is_open()) result.write_jsonl(jsonl_file);
    std::cout << "== fig_phase_bound: " << result.cells.size() << " cells ("
              << result.failed_count() << " failed) ==\n\n";
    bench::emit(result.to_table(), scale);
  }
  return result.failed_count() == 0 ? 0 : 1;
}
