// spf_sweep — the sweep CLI: every orchestrated figure over the SP
// experiment grid.
//
// Runs a (workload × L2 geometry × helper kind × RP × A_SKI × controller)
// grid through spf::orchestrate::run_sweep: every cell is one
// original-vs-SP comparison, fanned out over a fixed-size thread pool with
// slot-indexed aggregation, so the emitted table / CSV / JSONL artifacts are
// byte-identical at any --threads value. See docs/orchestrator.md.
//
// The committed figures are flag sets of this one driver:
//   --workloads=em3d,mcf,mst --controllers=static,aimd,capped
//       adaptive vs static distance control (docs/adaptive.md)
//   --workloads=em3d,mcf,mst --provenance
//       prefetch-lifecycle fate mix vs distance (docs/provenance.md)
//
// Flags (all optional; argument-free = CI-scale EM3D auto-distance sweep):
//   --workloads=em3d,mcf,mst   comma list (default em3d; em3d-late is the
//                              late-tight-phase fixture: reduced-arity
//                              prelude passes, full-arity pass last)
//   --controllers=static,aimd,capped  distance-controller axis (default
//                              static): the fixed A_SKI, the AIMD feedback
//                              walk from it, and the same walk capped at the
//                              plane's Set-Affinity bound
//   --distances=1,2,4,8        explicit A_SKI list (default: auto ladder
//                              around each plane's Set-Affinity bound)
//   --rps=0.5,1.0              prefetch ratios (default 0.5)
//   --geoms=1048576:16:64;...  semicolon list of bytes:ways:line geometries
//                              (default: one geometry from --l2/--assoc/--line)
//   --helpers=blocking,prefetch  helper kinds (default blocking)
//   --provenance               track every prefetch fill's fate; the JSONL
//                              rows grow prov_* fields and the fate table
//                              replaces the sweep table on stdout
//   --jsonl=PATH               also write a JSONL artifact (- = stdout)
//   --threads=N                0 = hardware concurrency, 1 = serial
//   --metrics-out=PATH         telemetry metrics dump (JSONL)
//   --trace-out=PATH           Perfetto/chrome://tracing timeline: one lane
//                              per worker, one slice per cell with
//                              replay/refine/memo child slices
//   --scale=paper, --l2=, --assoc=, --line=, --csv   as in every bench binary
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"

namespace {

/// Adaptive policy every committed adaptive figure ran with: the AIMD
/// ceiling before any bound clamp, and the observation interval in outer
/// iterations.
constexpr std::uint32_t kAdaptiveMaxDistance = 1024;
constexpr std::uint32_t kAdaptiveIntervalIters = 1000;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Fate-mix table: one row per cell, fates as percentages of tracked fills.
spf::Table fate_table(const spf::orchestrate::SweepResult& result) {
  using spf::ProvenanceSummary;
  spf::Table t({"workload", "L2", "helper", "controller", "RP", "A_SKI",
                "vs bound", "status", "tracked", "timely(%)", "late(%)",
                "evicted(%)", "polluting(%)", "resident(%)",
                "fill_to_use_mean", "pollution_rate"});
  for (const auto& c : result.cells) {
    t.row()
        .add(c.cell.workload)
        .add(c.cell.l2.to_string())
        .add(to_string(c.cell.helper))
        .add(to_string(c.cell.controller))
        .add(c.cell.rp, 2)
        .add(static_cast<std::uint64_t>(c.cell.distance));
    if (!c.ok) {
      t.add("-").add("failed: " + c.error);
      for (int i = 0; i < 8; ++i) t.add("-");
      continue;
    }
    const ProvenanceSummary& p = c.cmp->sp.provenance;
    const double denom =
        p.tracked_fills == 0 ? 1.0 : static_cast<double>(p.tracked_fills);
    const auto pct = [&](std::uint64_t n) {
      return 100.0 * static_cast<double>(n) / denom;
    };
    t.add(c.cell.distance < c.cell.bound_upper ? "within" : "beyond")
        .add("ok")
        .add(p.tracked_fills)
        .add(pct(p.used_timely), 2)
        .add(pct(p.used_late), 2)
        .add(pct(p.evicted_unused), 2)
        .add(pct(p.polluting), 2)
        .add(pct(p.resident_unused), 2)
        .add(p.fill_to_use_mean(), 1)
        .add(c.cmp->sp.l2_lookups == 0
                 ? 0.0
                 : static_cast<double>(
                       c.cmp->sp.pollution.total_pollution()) /
                       static_cast<double>(c.cmp->sp.l2_lookups),
             4);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spf;
  using orchestrate::ControllerKind;
  CliFlags flags(argc, argv);
  const bench::Scale scale = bench::parse_scale(flags);

  orchestrate::SweepSpec spec;
  for (const auto& name : split(flags.get("workloads", "em3d"), ',')) {
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
  spec.controllers.clear();
  for (const auto& c : split(flags.get("controllers", "static"), ',')) {
    if (c == "static") {
      spec.controllers.push_back(ControllerKind::kStatic);
    } else if (c == "aimd") {
      spec.controllers.push_back(ControllerKind::kAdaptiveAimd);
    } else if (c == "capped") {
      spec.controllers.push_back(ControllerKind::kAdaptiveCapped);
    } else {
      std::cerr << "unknown controller '" << c << "' (static|aimd|capped)\n";
      return 2;
    }
  }
  spec.adaptive.max_distance = kAdaptiveMaxDistance;
  spec.adaptive.interval_iters = kAdaptiveIntervalIters;
  for (const auto& d : split(flags.get("distances", ""), ',')) {
    std::uint32_t dist = 0;
    if (!parse_u32(d, dist)) {
      std::cerr << "bad --distances value '" << d << "' (want unsigned int)\n";
      return 2;
    }
    spec.distances.push_back(dist);
  }
  spec.rps.clear();
  for (const auto& r : split(flags.get("rps", "0.5"), ',')) {
    double rp = 0.0;
    if (!parse_double(r, rp)) {
      std::cerr << "bad --rps value '" << r << "' (want number)\n";
      return 2;
    }
    spec.rps.push_back(rp);
  }
  spec.helpers.clear();
  for (const auto& h : split(flags.get("helpers", "blocking"), ',')) {
    if (h == "blocking") {
      spec.helpers.push_back(orchestrate::HelperKind::kBlockingLoad);
    } else if (h == "prefetch") {
      spec.helpers.push_back(orchestrate::HelperKind::kPrefetchInstruction);
    } else {
      std::cerr << "unknown helper kind '" << h << "' (blocking|prefetch)\n";
      return 2;
    }
  }
  spec.geometries.clear();
  const std::string geoms = flags.get("geoms", "");
  if (geoms.empty()) {
    spec.geometries.push_back(scale.l2);
  } else {
    for (const auto& g : split(geoms, ';')) {
      const auto parts = split(g, ':');
      std::uint64_t bytes = 0;
      std::uint32_t ways = 0;
      std::uint32_t line = 0;
      if (parts.size() != 3 || !parse_u64(parts[0], bytes) ||
          !parse_u32(parts[1], ways) || !parse_u32(parts[2], line)) {
        std::cerr << "bad geometry '" << g << "' (want bytes:ways:line)\n";
        return 2;
      }
      try {
        spec.geometries.emplace_back(bytes, ways, line);
      } catch (const std::exception& e) {
        bench::usage_error("bad L2 geometry '" + g + "': " + e.what());
      }
    }
  }
  spec.provenance = bench::require_bool(flags, "provenance", false);
  const std::string jsonl_path = flags.get("jsonl", "");
  // Constructed before the unknown-flag check: the sink consumes
  // --metrics-out=/--trace-out= and installs the telemetry session the sweep
  // records into. Artifacts are written when it goes out of scope.
  bench::TelemetrySink telemetry_sink(flags, scale, "spf_sweep");
  bench::fail_on_unknown_flags(flags);

  // Every structural flag mistake funnels through the spec's own validator,
  // so the CLI and library agree on what a runnable grid is (usage = exit 2).
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
    std::cout << "== spf_sweep: " << result.cells.size() << " cells ("
              << result.failed_count() << " failed) ==\n\n";
    bench::emit(spec.provenance ? fate_table(result) : result.to_table(),
                scale);
  }
  return result.failed_count() == 0 ? 0 : 1;
}
