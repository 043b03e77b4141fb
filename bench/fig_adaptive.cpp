// fig_adaptive — adaptive-vs-static distance-controller ablation at paper
// scale.
//
// Runs the (workload × A_SKI × controller) grid through
// spf::orchestrate::run_sweep with the controller axis engaged: every
// distance is simulated three ways — static (the paper's fixed A_SKI),
// adaptive-AIMD (feedback walk, free range), and adaptive-capped (the same
// walk with max_distance clamped to the plane's Set-Affinity bound, i.e. the
// paper's thesis expressed as a controller policy). The JSONL artifact
// carries, per cell, the normalized runtime / pollution rate next to the
// controller's final and mean distance and full trajectory, so one file
// answers "does the feedback walk rediscover the static bound, and what does
// it cost while getting there". Artifacts are byte-identical at any
// --threads value (slot-indexed aggregation; see docs/orchestrator.md).
//
// Flags (all optional; argument-free = CI-scale em3d/mcf/mst ablation):
//   --workloads=em3d,mcf,mst     comma list (default all three)
//   --controllers=static,aimd,capped  controller axis (default all three;
//                                phase-capped adds the per-phase re-clamped
//                                walk — bench/fig_phase_bound is the focused
//                                whole-run-vs-per-phase ablation)
//   --distances=1,2,4,8          explicit starting A_SKI list (default:
//                                auto ladder around each plane's bound)
//   --rps=0.5                    prefetch ratios (default 0.5)
//   --interval=N                 controller observation interval in outer
//                                iterations (default 1000)
//   --max-distance=N             AIMD ceiling before any bound clamp
//                                (default 1024)
//   --jsonl=PATH                 JSONL artifact (- = stdout)
//   --threads=N                  0 = hardware concurrency, 1 = serial
//   --metrics-out= / --trace-out=  telemetry artifacts (adaptive.interval
//                                spans + adaptive.distance counter track)
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
  for (const auto& name : split(flags.get("workloads", "em3d,mcf,mst"), ',')) {
    if (name == "em3d") {
      spec.workloads.push_back(orchestrate::em3d_spec(bench::em3d_config(scale)));
    } else if (name == "mcf") {
      spec.workloads.push_back(orchestrate::mcf_spec(bench::mcf_config(scale)));
    } else if (name == "mst") {
      spec.workloads.push_back(orchestrate::mst_spec(bench::mst_config(scale)));
    } else {
      std::cerr << "unknown workload '" << name << "' (em3d|mcf|mst)\n";
      return 2;
    }
  }
  spec.controllers.clear();
  for (const auto& c : split(flags.get("controllers", "static,aimd,capped"), ',')) {
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
  const std::string jsonl_path = flags.get("jsonl", "");
  // Constructed before the unknown-flag check: the sink consumes
  // --metrics-out=/--trace-out= and installs the telemetry session the sweep
  // (and the per-interval adaptive spans) record into.
  bench::TelemetrySink telemetry_sink(flags, scale, "fig_adaptive");
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
    std::cout << "== fig_adaptive: " << result.cells.size() << " cells ("
              << result.failed_count() << " failed) ==\n\n";
    bench::emit(result.to_table(), scale);
  }
  return result.failed_count() == 0 ? 0 : 1;
}
