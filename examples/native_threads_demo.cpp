// Example: SP with *real* threads on this machine (spf::rt). Runs EM3D's
// compute loop with and without a pinned helper thread issuing
// __builtin_prefetch for upcoming dependency lines, using the round-
// staggered executor.
//
// On a single-core container this demonstrates correctness only (the
// timings will show no speedup — the simulator benches exist precisely
// because the paper's counters aren't measurable here). On a real multicore
// with a shared LLC, expect the helper to pay off at low CALR.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <vector>

#include "example_flags.hpp"
#include "spf/common/cli.hpp"
#include "spf/core/sp_params.hpp"
#include "spf/runtime/executor.hpp"
#include "spf/runtime/list_sp.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/em3d_native.hpp"

int main(int argc, char** argv) {
  using namespace spf;
  CliFlags flags(argc, argv);
  Em3dConfig config;
  config.nodes = examples::require_u32(flags, "nodes", 100000);
  config.arity = examples::require_u32(flags, "arity", 16);
  config.passes = 1;
  const std::uint32_t distance = examples::require_u32(flags, "distance", 32);
  const auto reps = static_cast<int>(
      examples::require_uint(flags, "reps", 3, std::numeric_limits<int>::max()));
  const Em3dWorkload model = examples::em3d_from_flags(config);

  std::cout << "== Native-thread SP demo (EM3D, " << config.nodes
            << " nodes x arity " << config.arity << ") ==\n"
            << "CPUs available: " << rt::online_cpus();
  const auto pair = rt::pick_sp_cpu_pair();
  if (pair) {
    std::cout << ", pinning main->" << pair->first << " helper->"
              << pair->second << "\n";
  } else {
    std::cout << " (single CPU: correctness demo only, no speedup expected)\n";
  }

  const SpParams params = SpParams::from_distance_rp(distance, 0.5);
  std::cout << "params: " << params.to_string() << "\n\n";

  auto time_ms = [](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Baseline: plain passes.
  Em3dGraph solo(model);
  double solo_ms = 0.0;
  double solo_sum = 0.0;
  for (int r = 0; r < reps; ++r) {
    solo_ms += time_ms([&] { solo_sum = solo.compute_pass(); });
  }

  // SP: round-staggered helper prefetching the dependency lines, via the
  // library's linked-list driver.
  Em3dGraph assisted(model);
  double sp_ms = 0.0;
  double sp_sum = 0.0;
  std::uint64_t prefetch_touches = 0;
  for (int r = 0; r < reps; ++r) {
    sp_ms += time_ms([&] {
      double sum = 0.0;
      const rt::ListSpReport report = rt::run_sp_over_list(
          assisted.head(), params,
          [&sum](Em3dNode& n) {
            double acc = n.value;
            for (std::uint32_t j = 0; j < n.from_count; ++j) {
              acc -= n.coeffs[j] * *n.from_values[j];
            }
            n.value = acc * 1e-3;
            sum += n.value;
          },
          [](const Em3dNode& n) {
            for (std::uint32_t j = 0; j < n.from_count; ++j) {
              rt::prefetch_line(n.from_values[j]);
            }
          },
          rt::ExecutorConfig{.max_lead_rounds = 1});
      sp_sum = sum;
      prefetch_touches = report.nodes_prefetched;
    });
  }
  std::printf("helper touched %llu nodes on the final pass\n",
              static_cast<unsigned long long>(prefetch_touches));

  std::printf("baseline: %8.2f ms/pass   checksum %.6g\n", solo_ms / reps,
              solo_sum);
  std::printf("SP:       %8.2f ms/pass   checksum %.6g   (%+.1f%%)\n",
              sp_ms / reps, sp_sum,
              100.0 * (sp_ms - solo_ms) / (solo_ms > 0 ? solo_ms : 1.0));
  // Both graphs executed `reps` identical passes; results must agree exactly.
  if (solo_sum != sp_sum) {
    std::cerr << "ERROR: helper changed the computation!\n";
    return 1;
  }
  std::cout << "results identical: the helper is purely a prefetching "
               "thread.\n";
  return 0;
}
