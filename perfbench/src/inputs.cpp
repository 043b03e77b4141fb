#include <sstream>

#include "bench.hpp"

namespace perfbench {

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.em3d.nodes = 20000;
  in.em3d.arity = 64;
  in.em3d.passes = 1;
  in.em3d.seed = seed;

  // Late-tight-phase em3d: quiet reduced-arity prelude pass, full-arity
  // pressured pass last.
  in.em3d_late = in.em3d;
  in.em3d_late.passes = 2;
  in.em3d_late.prelude_arity = 8;

  in.mcf.nodes = 8000;
  in.mcf.arcs = 48000;
  in.mcf.passes = 3;
  in.mcf.seed = seed + 1;

  in.mst.vertices = 1200;
  in.mst.degree = 64;
  in.mst.buckets = 128;
  in.mst.seed = seed + 2;

  // Mostly sequential: takes the advisor's regular-stream branch.
  in.synthetic.iterations = 24000;
  in.synthetic.sequential_lines = 10;
  in.synthetic.random_reads = 1;
  in.synthetic.seed = seed + 3;

  // Small village lists: no set saturates per invocation, so the advisor
  // takes its cumulative-fallback branch.
  in.health.depth = 5;
  in.health.mean_patients = 12;
  in.health.steps = 6;
  in.health.seed = seed + 4;
  return in;
}

std::vector<std::uint32_t> auto_ladder(std::uint32_t bound) {
  std::vector<std::uint32_t> d;
  for (const double f : {0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0}) {
    const auto v = static_cast<std::uint32_t>(f * bound);
    if (v >= 1 && (d.empty() || v != d.back())) d.push_back(v);
  }
  if (d.empty()) d.push_back(1);
  return d;
}

SimSample SimSample::of(const spf::SpRunSummary& sp, std::uint64_t records) {
  SimSample s;
  s.runtime = static_cast<double>(sp.runtime);
  s.records = records;
  s.l2_lookups = sp.l2_lookups;
  s.totally_hits = sp.totally_hits;
  s.partially_hits = sp.partially_hits;
  s.totally_misses = sp.totally_misses;
  s.memory_requests = sp.memory_requests;
  s.pollution_case1 = sp.pollution.case1_reuse_displaced;
  s.pollution_case2 = sp.pollution.case2_helper_displaced;
  s.pollution_case3 = sp.pollution.case3_hw_displaced;
  s.helper_finish = sp.helper_finish;
  s.tracked_fills = sp.provenance.tracked_fills;
  s.used_timely = sp.provenance.used_timely;
  s.used_late = sp.provenance.used_late;
  s.polluting = sp.provenance.polluting;
  return s;
}

std::string SimSample::fingerprint() const {
  std::ostringstream out;
  out.precision(17);
  out << original_runtime << '/' << runtime << '/' << records << '/'
      << l2_lookups << '/' << totally_hits << '/' << partially_hits << '/'
      << totally_misses << '/' << memory_requests << '/' << pollution_case1
      << '/' << pollution_case2 << '/' << pollution_case3 << '/'
      << helper_finish << '/' << tracked_fills << '/' << used_timely << '/'
      << used_late << '/' << polluting << '/' << detail;
  return out.str();
}

std::string check_lookup_partition(const spf::SpRunSummary& s,
                                   const std::string& what) {
  if (s.totally_hits + s.partially_hits + s.totally_misses == s.l2_lookups) {
    return "";
  }
  std::ostringstream out;
  out << what << ": totally_hits + partially_hits + totally_misses = "
      << s.totally_hits + s.partially_hits + s.totally_misses
      << " != l2_lookups " << s.l2_lookups;
  return out.str();
}

std::string ResultLedger::record(const std::string& key,
                                 const SimSample& sample, bool deployed) {
  const auto [it, inserted] =
      entries_.try_emplace(key, std::make_pair(sample, deployed));
  if (inserted) return "";
  if (it->second.first.fingerprint() == sample.fingerprint()) return "";
  return key + ": result differs from the first run of this configuration (" +
         sample.fingerprint() + " vs " + it->second.first.fingerprint() + ")";
}

}  // namespace perfbench
