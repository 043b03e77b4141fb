// Example: the one-call advisory API. Point it at any of the built-in
// workloads (or tweak their sizes) and get the full SP deployment
// recommendation: pattern mix, phases, CALR->RP, Set Affinity bound,
// recommended A_SKI/A_PRE and a simulated validation.
//
//   sp_advisor --workload=em3d|mcf|mst|health|synthetic [--l2=<bytes>]
#include <iostream>
#include <memory>

#include "example_flags.hpp"
#include "spf/common/cli.hpp"
#include "spf/core/advisor.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/health.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"
#include "spf/workloads/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  const std::string name = flags.get("workload", "em3d");

  std::unique_ptr<Workload> workload;
  if (name == "em3d") {
    Em3dConfig c;
    c.nodes = 20000;
    c.arity = 64;
    c.passes = 1;
    workload = std::make_unique<Em3dWorkload>(c);
  } else if (name == "mcf") {
    McfConfig c;
    c.nodes = 8000;
    c.arcs = 48000;
    c.passes = 2;
    workload = std::make_unique<McfWorkload>(c);
  } else if (name == "mst") {
    MstConfig c;
    c.vertices = 1000;
    workload = std::make_unique<MstWorkload>(c);
  } else if (name == "health") {
    HealthConfig c;
    c.depth = 5;
    c.mean_patients = 12;
    c.steps = 6;
    workload = std::make_unique<HealthWorkload>(c);
  } else if (name == "synthetic") {
    SyntheticConfig c;
    c.iterations = 24000;
    // Mostly sequential: the advisor should push back on SP here.
    c.sequential_lines = 10;
    c.random_reads = 1;
    workload = std::make_unique<SyntheticWorkload>(c);
  } else {
    std::cerr << "unknown workload '" << name
              << "' (use em3d|mcf|mst|health|synthetic)\n";
    return 2;
  }

  AdvisorConfig config;
  config.l2 = examples::l2_from_flags(flags);

  std::cout << "== SP advisor: " << workload->name() << " on "
            << config.l2.to_string() << " ==\n\n";
  const TraceBuffer trace = workload->emit_trace();
  const AdvisorReport report =
      advise_sp(trace, workload->invocation_starts(), config);
  std::cout << report.to_string();
  return 0;
}
