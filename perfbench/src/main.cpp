// spf_perfbench — the repo benchmark's measuring program (run.py builds and
// drives it; NOTES.md describes the workloads and every metric).
//
//   spf_perfbench --workload sweep|advise|adaptive-late --seed N --seconds S
//                 --trace 0|1 [--trace-out PATH]
//
// --trace 0: runs whole rotations of closed-loop rounds without spans until
// S seconds of rounds have passed, setting up again every S/5 seconds
// (set-up time is the median), and prints the end-to-end metrics.
// --trace 1: sets up once and probes the components with spans on, then runs
// each round untraced and traced in turn for S seconds, writes the spans as
// Chrome trace-event JSON to PATH, and prints the per-layer metrics.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. Any failed op or check exits 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spf_perfbench: " << why
            << "\nusage: spf_perfbench --workload sweep|advise|adaptive-late "
               "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const RoundResult& r) {
    attempted += r.ops;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
};

/// Moves a single-threaded workload's thread to the next CPU it may run on,
/// once per round. On a shared host each vCPU's speed switches between
/// regimes independently of the others (on a 4-vCPU cloud VM, two pinned
/// copies of one SP cell timed side by side correlated at 0.05), so rotating
/// over every allowed CPU averages their regimes instead of reporting
/// whichever CPU the scheduler kept the thread on. A no-op where affinity
/// cannot be read or set, and for multi-threaded workloads, whose workers
/// would inherit it.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned threads) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (threads != 1 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Prints the metrics as a table, then the result line; returns the exit code.
int report(const Tally& tally, const std::vector<Metric>& metrics) {
  const bool correct = tally.failed == 0 && tally.errors.empty();
  for (std::size_t i = 0; i < tally.errors.size() && i < 20; ++i) {
    std::cerr << "check failed: " << tally.errors[i] << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

/// Modelled totals over the deployed configurations of one rotation.
struct Deployed {
  double log_norm_sum = 0.0;
  double runs = 0.0;
  SimSample sum;
};

Deployed deployed_totals(const ResultLedger& ledger) {
  Deployed d;
  for (const auto& [key, entry] : ledger.entries()) {
    const auto& [s, deployed] = entry;
    if (!deployed) continue;
    d.log_norm_sum += std::log(s.runtime / s.original_runtime);
    d.runs += 1.0;
    d.sum.runtime += s.runtime;
    d.sum.records += s.records;
    d.sum.l2_lookups += s.l2_lookups;
    d.sum.totally_hits += s.totally_hits;
    d.sum.partially_hits += s.partially_hits;
    d.sum.totally_misses += s.totally_misses;
    d.sum.memory_requests += s.memory_requests;
    d.sum.pollution_case1 += s.pollution_case1;
    d.sum.pollution_case2 += s.pollution_case2;
    d.sum.pollution_case3 += s.pollution_case3;
    d.sum.helper_finish += s.helper_finish;
  }
  return d;
}

int run_timed(BenchWorkload& workload, const Options& opt) {
  // Set-ups are spread over the run, one every seconds / kSetups of timed
  // work, so that their median, like the throughput, spans the host-speed
  // regimes the run meets. Each set-up replaces the workload's state.
  std::vector<double> setups;
  Clock::time_point last_setup;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    workload.setup(nullptr);
    setups.push_back(seconds_since(start));
    last_setup = Clock::now();
  };
  set_up();

  // Ops and records per host second of the whole timed phase. A shared
  // host's speed switches between regimes for tens of seconds; the
  // whole-phase ratio averages over them, where a median over rounds follows
  // whichever regime held most rounds.
  Tally tally;
  double timed_s = 0.0;
  double records = 0.0;
  std::vector<double> round_rates;
  const std::size_t rotation = workload.rounds_per_rotation();
  CpuRotation cpus(workload.threads());
  do {
    for (std::size_t r = 0; r < rotation; ++r) {
      cpus.next();
      if (seconds_since(last_setup) >= opt.seconds / kSetups) set_up();
      const Clock::time_point start = Clock::now();
      const RoundResult round = workload.run_round(r, nullptr);
      const double sec = seconds_since(start);
      timed_s += sec;
      records += static_cast<double>(round.records);
      round_rates.push_back(static_cast<double>(round.ops) / sec);
      tally.add(round);
    }
  } while (timed_s < opt.seconds);
  std::cerr << "round ops/s:";
  for (const double r : round_rates) std::cerr << " " << number(r);
  std::cerr << "\n";

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const Deployed d = deployed_totals(workload.ledger());
  const double pollution = static_cast<double>(d.sum.pollution_case1 +
                                               d.sum.pollution_case2 +
                                               d.sum.pollution_case3);
  const double attempted = static_cast<double>(tally.attempted);
  return report(
      tally,
      {{"ops_per_s", ratio(attempted, timed_s), "ops/s"},
       {"records_per_s", ratio(records, timed_s), "records/s"},
       {"setup_s", median(setups), "s"},
       {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
       {"ok_op_ratio",
        ratio(attempted - static_cast<double>(tally.failed), attempted),
        "ratio"},
       {"sim_norm_runtime",
        d.runs == 0 ? 0.0 : std::exp(d.log_norm_sum / d.runs), "ratio"},
       {"sim_pollution_per_klookup",
        ratio(1000.0 * pollution, static_cast<double>(d.sum.l2_lookups)),
        "1/klookup"}});
}

/// Self time and work counts of every span of one name, pooled.
struct Pooled {
  double self_s = 0.0;
  double dur_s = 0.0;
  double spans = 0.0;
  std::map<std::string, double> counts;

  [[nodiscard]] double ns_per(const std::string& key) const {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : ratio(1e9 * self_s, it->second);
  }
  [[nodiscard]] double count(const std::string& key) const {
    const auto it = counts.find(key);
    return it == counts.end() ? 0.0 : it->second;
  }
};

std::vector<Metric> layer_metrics(const std::vector<Span>& spans,
                                  const BenchWorkload& workload,
                                  double trace_overhead) {
  const std::map<std::uint64_t, double> self = self_seconds(spans);
  std::map<std::string, Pooled> by_name;
  Pooled provenance;
  for (const Span& s : spans) {
    if (s.end_ns < 0) continue;
    Pooled& p = by_name[s.name];
    p.self_s += self.at(s.id);
    p.dur_s += static_cast<double>(s.end_ns - s.begin_ns) * 1e-9;
    p.spans += 1.0;
    for (const auto& [key, value] : s.counts) p.counts[key] += value;
    if (s.counts.count("prov.tracked_fills") != 0) {
      for (const auto& [key, value] : s.counts) provenance.counts[key] += value;
    }
  }
  auto pooled = [&](const std::string& name) -> const Pooled& {
    static const Pooled empty;
    const auto it = by_name.find(name);
    return it == by_name.end() ? empty : it->second;
  };

  // orchestrate: per sweep, from its cell spans; median over traced sweeps.
  std::vector<double> plane_phase, busy, idle;
  for (const Span& sweep : spans) {
    if (sweep.name != "orchestrate.run_sweep" || sweep.end_ns < 0) continue;
    std::int64_t first = -1, last = -1;
    double cell_busy = 0.0;
    for (const Span& c : spans) {
      if (c.parent != sweep.id || c.name != "orchestrate.cell" ||
          c.end_ns < 0) {
        continue;
      }
      first = first < 0 ? c.begin_ns : std::min(first, c.begin_ns);
      last = std::max(last, c.end_ns);
      cell_busy += static_cast<double>(c.end_ns - c.begin_ns) * 1e-9;
    }
    if (first < 0) continue;
    plane_phase.push_back(static_cast<double>(first - sweep.begin_ns) * 1e-9);
    busy.push_back(cell_busy);
    const double cell_phase_s = static_cast<double>(last - first) * 1e-9;
    idle.push_back(1.0 - cell_busy / (kSweepWorkers * cell_phase_s));
  }

  // workloads.records: each distinct input's emission counted once.
  double input_records = 0.0;
  std::set<std::string> inputs_seen;
  for (const Span& s : spans) {
    if (s.name != "workloads.emit_trace") continue;
    for (const auto& [key, value] : s.counts) {
      if (key.rfind("input.", 0) == 0 && inputs_seen.insert(key).second) {
        input_records += s.counts.at("records");
      }
    }
  }

  const Pooled& interp = pooled("ir.interpret");
  const Pooled& fresh = pooled("probe.fresh_context.run_sp_once");
  const Pooled& warm_context = pooled("probe.warm_context.run_sp_once");
  const Pooled& warm = pooled("probe.run_sp_once");
  const Pooled& adaptive = pooled("core.run_adaptive");
  const Pooled& fixed = pooled("core.run_sp_once");
  const Pooled& cursor = pooled("core.HelperViewCursor.fill");
  const Pooled& observe = pooled("prefetch.CorePrefetchers.observe");
  const Pooled& bound = pooled("core.estimate_phase_bounds");
  const double tracked = provenance.count("prov.tracked_fills");

  const Deployed d = deployed_totals(workload.ledger());
  const auto lookups = static_cast<double>(d.sum.l2_lookups);
  const ExactMetrics exact = workload.exact_metrics();
  auto exact_or_zero = [&](const std::string& name) {
    const auto it = exact.find(name);
    return it == exact.end() ? 0.0 : it->second;
  };

  return {
      {"orchestrate.plane_phase_s", median(plane_phase), "s"},
      {"orchestrate.cell_busy_s", median(busy), "s"},
      {"orchestrate.worker_idle_share", median(idle), "ratio"},
      {"orchestrate.memo_hit_rate", exact_or_zero("orchestrate.memo_hit_rate"),
       "ratio"},
      {"workloads.emit_ns_per_record",
       pooled("workloads.emit_trace").ns_per("records"), "ns/record"},
      {"workloads.records", input_records, "records"},
      {"ir.interpret_ns_per_op", interp.ns_per("ops"), "ns/op"},
      {"ir.ops", ratio(interp.count("ops"), interp.spans), "ops"},
      {"profile.patterns_ns_per_record",
       pooled("profile.classify_patterns").ns_per("records"), "ns/record"},
      {"profile.phases_ns_per_record",
       pooled("profile.detect_phases").ns_per("records"), "ns/record"},
      {"profile.calr_ns_per_record",
       pooled("profile.estimate_calr").ns_per("records"), "ns/record"},
      {"profile.sa_ns_per_record",
       pooled("profile.analyze_workload_sa").ns_per("records"), "ns/record"},
      {"core.bound_s", ratio(bound.dur_s, bound.spans), "s"},
      {"core.refine_ns_per_record",
       pooled("core.refine_with_helper").ns_per("records"), "ns/record"},
      {"core.helper_synth_ns_per_record", cursor.ns_per("records"),
       "ns/record"},
      {"core.helper_records_per_record",
       ratio(cursor.count("helper_records"), cursor.count("records")),
       "ratio"},
      {"core.cold_context_s",
       ratio(fresh.dur_s - warm_context.dur_s, warm_context.spans), "s"},
      {"core.adaptive_ns_per_record", adaptive.ns_per("records"), "ns/record"},
      {"core.adaptive_overhead_ratio",
       ratio(adaptive.ns_per("records"), fixed.ns_per("records")), "ratio"},
      {"core.adaptive_intervals", exact_or_zero("core.adaptive_intervals"),
       "count"},
      {"core.adaptive_reclamps", exact_or_zero("core.adaptive_reclamps"),
       "count"},
      {"core.adaptive_mean_distance",
       exact_or_zero("core.adaptive_mean_distance"), "iterations"},
      {"core.adaptive_vs_best_static",
       exact_or_zero("core.adaptive_vs_best_static"), "ratio"},
      {"sim.sp_ns_per_record", warm.ns_per("records"), "ns/record"},
      {"sim.original_ns_per_record",
       pooled("probe.run_original").ns_per("records"), "ns/record"},
      {"sim.provenance_overhead_ratio",
       ratio(pooled("probe.provenance.run_sp_once").ns_per("records"),
             warm.ns_per("records")),
       "ratio"},
      {"sim.l2_lookups_per_record",
       ratio(lookups, static_cast<double>(d.sum.records)), "ratio"},
      {"sim.totally_hit_share",
       ratio(static_cast<double>(d.sum.totally_hits), lookups), "ratio"},
      {"sim.partially_hit_share",
       ratio(static_cast<double>(d.sum.partially_hits), lookups), "ratio"},
      {"sim.totally_miss_share",
       ratio(static_cast<double>(d.sum.totally_misses), lookups), "ratio"},
      {"sim.memory_requests_per_klookup",
       ratio(1000.0 * static_cast<double>(d.sum.memory_requests), lookups),
       "1/klookup"},
      {"sim.pollution_case1_per_klookup",
       ratio(1000.0 * static_cast<double>(d.sum.pollution_case1), lookups),
       "1/klookup"},
      {"sim.pollution_case2_per_klookup",
       ratio(1000.0 * static_cast<double>(d.sum.pollution_case2), lookups),
       "1/klookup"},
      {"sim.pollution_case3_per_klookup",
       ratio(1000.0 * static_cast<double>(d.sum.pollution_case3), lookups),
       "1/klookup"},
      {"sim.helper_finish_ratio",
       ratio(static_cast<double>(d.sum.helper_finish), d.sum.runtime),
       "ratio"},
      {"cache.l1_ns_per_access", pooled("cache.l1_pass").ns_per("accesses"),
       "ns/access"},
      {"cache.l2_ns_per_access", pooled("cache.l2_pass").ns_per("accesses"),
       "ns/access"},
      {"prefetch.observe_ns_per_record", observe.ns_per("records"),
       "ns/record"},
      {"prefetch.candidates_per_krecord",
       ratio(1000.0 * observe.count("candidates"), observe.count("records")),
       "1/krecord"},
      {"prefetch.useful_ratio",
       ratio(provenance.count("prov.used_timely") +
                 provenance.count("prov.used_late"),
             tracked),
       "ratio"},
      {"prefetch.timely_ratio",
       ratio(provenance.count("prov.used_timely"), tracked), "ratio"},
      {"prefetch.polluting_ratio",
       ratio(provenance.count("prov.polluting"), tracked), "ratio"},
      {"bench.trace_overhead_ratio", trace_overhead, "ratio"},
  };
}

int run_traced(BenchWorkload& workload, const Options& opt) {
  SpanLog spans;
  workload.setup(&spans);
  workload.probe(spans);

  // Each round runs untraced and traced back to back, in alternating order:
  // the pair shares host conditions, and the ledger checks that the traced
  // run reproduces the untraced one.
  Tally tally;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  const std::size_t rotation = workload.rounds_per_rotation();
  CpuRotation cpus(workload.threads());
  const Clock::time_point timed = Clock::now();
  std::size_t pairs = 0;
  do {
    for (std::size_t r = 0; r < rotation; ++r, ++pairs) {
      cpus.next();
      for (const bool traced : {pairs % 2 == 1, pairs % 2 == 0}) {
        const Clock::time_point start = Clock::now();
        tally.add(workload.run_round(r, traced ? &spans : nullptr));
        (traced ? traced_s : untraced_s) += seconds_since(start);
      }
    }
  } while (seconds_since(timed) < opt.seconds);

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    spans.write_chrome_trace(out);
    if (!out) tally.errors.push_back("cannot write " + opt.trace_out);
  }
  return report(tally, layer_metrics(spans.snapshot(), workload,
                                     ratio(traced_s, untraced_s)));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  const Inputs inputs = make_inputs(opt.seed);
  std::unique_ptr<BenchWorkload> workload;
  if (opt.workload == "sweep") {
    workload = make_sweep(inputs);
  } else if (opt.workload == "advise") {
    workload = make_advise(inputs);
  } else if (opt.workload == "adaptive-late") {
    workload = make_adaptive_late(inputs);
  } else {
    usage("unknown --workload '" + opt.workload + "'");
  }
  return opt.trace ? run_traced(*workload, opt) : run_timed(*workload, opt);
}
