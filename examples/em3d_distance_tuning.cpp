// Example: the full distance-tuning workflow the paper proposes, as a
// downstream user would run it on their own kernel.
//
//   profile (burst-sampled!) -> phases -> Set Affinity -> bound ->
//   pick distance -> verify with a focused sweep.
//
// Burst sampling matters: the paper's profiler keeps ~10% of the stream, and
// this example shows the bound computed from samples agrees with the bound
// from the full trace.
#include <algorithm>
#include <iostream>

#include "example_flags.hpp"
#include "spf/common/cli.hpp"
#include "spf/common/csv.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/profile/phase.hpp"
#include "spf/profile/sampling.hpp"
#include "spf/workloads/em3d.hpp"

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  Em3dConfig config;
  config.nodes = examples::require_u32(flags, "nodes", 20000);
  config.arity = examples::require_u32(flags, "arity", 64);
  config.passes = 1;
  const CacheGeometry l2 = examples::l2_from_flags(flags);
  const Em3dWorkload workload = examples::em3d_from_flags(config);

  std::cout << "== EM3D prefetch-distance tuning walkthrough ==\n\n";
  const TraceBuffer trace = workload.emit_trace();
  std::cout << "[1] traced hot loop: " << trace.size() << " accesses, "
            << workload.outer_iterations() << " outer iterations\n";

  // Phase behaviour: EM3D's compute_nodes is famously stable.
  const PhaseReport phases = detect_phases(trace, l2);
  std::cout << "[2] phase detection: " << phases.distinct_phases
            << " distinct phase(s) across " << phases.phases.size()
            << " segment(s)"
            << (phases.is_stable() ? " -- stable, one profile suffices" : "")
            << "\n";

  // Interval burst sampling, as the paper's low-overhead profiler does.
  BurstConfig burst_cfg;
  burst_cfg.burst_iters = 256;
  burst_cfg.interval_iters = 2048;
  const auto bursts = burst_sample(trace, burst_cfg);
  std::cout << "[3] burst sampling kept "
            << 100.0 * sampled_fraction(trace, bursts) << "% of the stream in "
            << bursts.size() << " bursts\n";

  // Set Affinity from samples vs from the full stream.
  SetAffinityAnalyzer sampled_an(l2);
  std::uint32_t sampled_min = ~0u;
  for (const Burst& b : bursts) {
    for (const TraceRecord& r : b.records) {
      sampled_an.observe(r.addr, r.outer_iter);
    }
    const SetAffinityResult r = sampled_an.finish();
    if (r.any_saturated()) {
      sampled_min = std::min(sampled_min, r.min_sa());
    }
  }
  const DistanceBound bound =
      estimate_distance_bound(trace, workload.invocation_starts(), l2);
  std::cout << "[4] min Set Affinity: full trace = " << bound.original_min_sa
            << ", burst samples = " << sampled_min
            << " -> bound (SA/2) = " << bound.upper_limit << "\n";

  // Refine with the combined main+helper stream (Definition 3).
  const SpParams chosen =
      SpParams::from_distance_rp(std::max(1u, bound.upper_limit / 2), 0.5);
  const DistanceBound refined = refine_with_helper(
      bound, trace, workload.invocation_starts(), chosen, l2);
  std::cout << "[5] refined with helper stream: " << refined.to_string()
            << "\n\n";

  // Verify with a focused sweep around the chosen point. The sweep reuses
  // one ExperimentContext across all four comparisons.
  SpExperimentConfig exp;
  exp.sim.l2 = l2;
  ExperimentContext ctx;
  Table t({"distance", "norm runtime", "pollution", "verdict"});
  double best_runtime = 1e300;
  std::uint32_t best_distance = 0;
  for (std::uint32_t d :
       {std::max(1u, refined.upper_limit / 4), std::max(1u, refined.upper_limit / 2),
        refined.upper_limit, refined.upper_limit * 4}) {
    exp.params = SpParams::from_distance_rp(d, 0.5);
    const SpComparison cmp = ctx.run_comparison(trace, exp);
    if (cmp.norm_runtime() < best_runtime) {
      best_runtime = cmp.norm_runtime();
      best_distance = d;
    }
    t.row()
        .add(static_cast<std::uint64_t>(d))
        .add(cmp.norm_runtime(), 3)
        .add(cmp.sp.pollution.total_pollution())
        .add(refined.allows(d) ? "within bound" : "beyond bound");
  }
  t.print(std::cout);
  std::cout << "\n[6] chosen distance " << best_distance << " ("
            << format_fixed((1.0 - best_runtime) * 100.0, 1)
            << "% faster than the original loop on the simulated die)\n";
  const auto unknown = flags.unconsumed();
  return unknown.empty() ? 0 : 2;
}
