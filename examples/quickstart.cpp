// Quickstart: the complete SP workflow on EM3D.
//
//   1. build a workload and emit its hot-loop trace;
//   2. profile it: CALR (picks the prefetch ratio) and Set Affinity (bounds
//      the prefetch distance);
//   3. run the original and SP configurations on the CMP simulator;
//   4. compare a distance inside the bound against one far outside it.
//
// Run with no arguments; --nodes/--arity/--distance are optional overrides.
#include <cstdio>
#include <iostream>

#include "example_flags.hpp"
#include "spf/common/cli.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/profile/calr.hpp"
#include "spf/workloads/em3d.hpp"

int main(int argc, char** argv) {
  spf::CliFlags flags(argc, argv);
  spf::Em3dConfig config;
  config.nodes = spf::examples::require_u32(flags, "nodes", 20000);
  config.arity = spf::examples::require_u32(flags, "arity", 64);
  config.passes = 2;
  // 0 stands for the default, half the distance bound computed below.
  const std::uint32_t distance_flag =
      spf::examples::require_u32(flags, "distance", 0);
  const spf::Em3dWorkload workload = spf::examples::em3d_from_flags(config);

  // A smaller L2 keeps the demo fast while preserving the paper's geometry
  // ratios (16-way, 64 B lines).
  spf::SpExperimentConfig exp;
  exp.sim.l2 = spf::CacheGeometry(1 << 20, 16, 64);

  std::cout << "== Skip helper-threaded Prefetching quickstart (EM3D) ==\n";
  std::cout << "L2: " << exp.sim.l2.to_string() << "\n\n";

  // 1. Trace the workload built above.
  const spf::TraceBuffer trace = workload.emit_trace();
  std::cout << "trace: " << trace.size() << " accesses over "
            << workload.outer_iterations() << " outer iterations\n";

  // 2. Profile: CALR -> RP; Set Affinity -> distance bound.
  spf::CalrConfig calr_config;
  calr_config.l2 = exp.sim.l2;
  const spf::CalrEstimate calr = spf::estimate_calr(trace, calr_config);
  const double rp = spf::SpParams::rp_from_calr(calr.calr);
  std::cout << calr.to_string() << " -> RP=" << rp << "\n";

  const spf::DistanceBound bound = spf::estimate_distance_bound(
      trace, workload.invocation_starts(), exp.sim.l2);
  std::cout << bound.to_string() << "\n\n";

  // 3+4. Compare a distance inside the bound vs far beyond it. One
  // ExperimentContext serves both comparisons: the simulator and helper-trace
  // scratch are reused between runs (identical results to the free
  // spf::run_sp_experiment, without re-building the machine each time).
  spf::ExperimentContext ctx;
  const std::uint32_t good =
      distance_flag != 0 ? distance_flag : std::max(1u, bound.upper_limit / 2);
  const std::uint32_t bad = bound.upper_limit * 6;
  for (std::uint32_t distance : {good, bad}) {
    exp.params = spf::SpParams::from_distance_rp(distance, rp);
    const spf::SpComparison cmp = ctx.run_comparison(trace, exp);
    std::printf(
        "distance %5u (%s bound %u): norm_runtime=%.3f  dThit=%+.3f  "
        "dTmiss=%+.3f  dPhit=%+.3f  pollution=%llu\n",
        distance, bound.allows(distance) ? "within" : "BEYOND",
        bound.upper_limit, cmp.norm_runtime(), cmp.delta_totally_hit(),
        cmp.delta_totally_miss(), cmp.delta_partially_hit(),
        static_cast<unsigned long long>(cmp.sp.pollution.total_pollution()));
  }
  std::cout << "\nWithin the bound SP should cut totally-misses with little "
               "pollution;\nbeyond it the helper strips the shared cache and "
               "runtime climbs back up.\n";
  return 0;
}
