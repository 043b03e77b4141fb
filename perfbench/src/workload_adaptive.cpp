// `adaptive-late`: em3d-late, run serially on one ExperimentContext. Per
// start distance on the automatic ladder, one static run_sp_once run and
// three run_adaptive runs — ceiling 1024, ceiling = the whole-run bound,
// per-phase caps from estimate_phase_bounds — with warm intervals and
// SimConfig::provenance on. An op, and a round, is one simulator run.
#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/core/experiment_context.hpp"

namespace perfbench {
namespace {

using namespace spf;

/// Warm intervals, selected so that this still compiles once warm is the
/// only interval semantics and the field is gone.
template <typename Config>
void select_warm_intervals(Config& config) {
  if constexpr (requires { config.warm_intervals = true; }) {
    config.warm_intervals = true;
  }
}

constexpr std::uint32_t kOpenCeiling = 1024;

enum class RunKind { kStatic, kCeiling1024, kCeilingBound, kPhaseCaps };
constexpr RunKind kRunKinds[] = {RunKind::kStatic, RunKind::kCeiling1024,
                                 RunKind::kCeilingBound, RunKind::kPhaseCaps};

const char* name_of(RunKind kind) {
  switch (kind) {
    case RunKind::kStatic: return "static";
    case RunKind::kCeiling1024: return "ceiling-1024";
    case RunKind::kCeilingBound: return "ceiling-bound";
    case RunKind::kPhaseCaps: return "phase-caps";
  }
  return "?";
}

/// "" when every interval's distance stays within [min, ceiling in effect].
std::string check_trajectory(const AdaptiveRunResult& run,
                             const AdaptiveConfig& config) {
  std::size_t next_reclamp = 0;
  std::uint32_t ceiling = config.max_distance;
  for (std::size_t i = 0; i < run.distance_trajectory.size(); ++i) {
    while (next_reclamp < run.reclamps.size() &&
           run.reclamps[next_reclamp].interval <= i) {
      ceiling = run.reclamps[next_reclamp].cap;
      ++next_reclamp;
    }
    const std::uint32_t d = run.distance_trajectory[i];
    if (d < config.min_distance || d > ceiling || d > config.max_distance) {
      std::ostringstream out;
      out << "interval " << i << " ran at distance " << d
          << " outside [" << config.min_distance << ", " << ceiling << "]";
      return out.str();
    }
  }
  return "";
}

class AdaptiveLateBench final : public BenchWorkload {
 public:
  explicit AdaptiveLateBench(const Inputs& inputs) : inputs_(inputs) {}

  void setup(SpanLog* spans) override {
    state_.reset();
    auto st = std::make_unique<State>();
    {
      Scope span(spans, "workloads.emit_trace");
      const Em3dWorkload workload(inputs_.em3d_late);
      st->trace = workload.emit_trace();
      st->invocation_starts = workload.invocation_starts();
      span.count("records", static_cast<double>(st->trace.size()));
      span.count("input.em3d-late", 1);
    }
    {
      Scope span(spans, "core.estimate_phase_bounds");
      st->bound = estimate_phase_bounds(st->trace, st->invocation_starts,
                                        inputs_.l2);
      span.count("records", static_cast<double>(st->trace.size()));
    }
    st->ladder = auto_ladder(st->bound.whole.upper_limit);
    st->config.sim.l2 = inputs_.l2;
    st->config.sim.provenance = true;
    // The baseline every normalized runtime divides by; doubles as warm-up.
    st->original = st->context.run_original(st->trace, st->config);
    state_ = std::move(st);
  }

  [[nodiscard]] unsigned threads() const override { return 1; }
  [[nodiscard]] std::size_t rounds_per_rotation() const override {
    return state_->ladder.size() * std::size(kRunKinds);
  }

  RoundResult run_round(std::size_t r, SpanLog* spans) override {
    RoundResult out;
    out.ops = 1;
    const std::size_t kinds = std::size(kRunKinds);
    const std::uint32_t start =
        state_->ladder[(r / kinds) % state_->ladder.size()];
    const RunKind kind = kRunKinds[r % kinds];
    std::string key = "d";
    key += std::to_string(start);
    key += '/';
    key += name_of(kind);
    Scope op(spans, "op.adaptive-late", /*new_op=*/true);
    op.count("distance", start);
    try {
      const std::string problem = run_one(kind, start, key, spans, out);
      if (!problem.empty()) out.fail(key + ": " + problem);
    } catch (const std::exception& e) {
      out.fail(key + " threw: " + e.what());
    }
    return out;
  }

  void probe(SpanLog& spans) override {
    probe_input(spans, "em3d-late", state_->trace, state_->invocation_starts,
                inputs_.l2);
  }

  [[nodiscard]] ExactMetrics exact_metrics() const override {
    double intervals = 0, reclamps = 0, mean_distance = 0, runs = 0;
    double best_adaptive = std::numeric_limits<double>::infinity();
    double best_static = std::numeric_limits<double>::infinity();
    for (const auto& [key, entry] : ledger_.entries()) {
      const auto found = walks_.find(key);
      if (found == walks_.end()) {
        best_static = std::min(best_static, entry.first.runtime);
        continue;
      }
      best_adaptive = std::min(best_adaptive, entry.first.runtime);
      intervals += static_cast<double>(found->second.intervals);
      reclamps += static_cast<double>(found->second.reclamps);
      mean_distance += found->second.mean_distance;
      ++runs;
    }
    if (runs == 0) return {};
    return {{"core.adaptive_intervals", intervals / runs},
            {"core.adaptive_reclamps", reclamps / runs},
            {"core.adaptive_mean_distance", mean_distance / runs},
            {"core.adaptive_vs_best_static", best_adaptive / best_static}};
  }

 private:
  struct State {
    TraceBuffer trace;
    std::vector<std::uint32_t> invocation_starts;
    PhasedDistanceBound bound;
    std::vector<std::uint32_t> ladder;
    SpExperimentConfig config;
    SpRunSummary original;
    ExperimentContext context;
  };

  struct Walk {
    std::uint64_t intervals = 0;
    std::uint64_t reclamps = 0;
    double mean_distance = 0.0;
  };

  std::string run_one(RunKind kind, std::uint32_t start, const std::string& key,
                      SpanLog* spans, RoundResult& out) {
    State& st = *state_;
    const auto records = static_cast<double>(st.trace.size());
    SpRunSummary summary;
    std::string detail;
    if (kind == RunKind::kStatic) {
      SpExperimentConfig cfg = st.config;
      cfg.params = SpParams::from_distance_rp(start, 0.5);
      Scope span(spans, "core.run_sp_once");
      summary = st.context.run_sp_once(st.trace, cfg);
      span.count("records", records);
      count_provenance(span, summary.provenance);
    } else {
      AdaptiveConfig acfg;
      acfg.initial_distance = start;
      acfg.rp = 0.5;
      acfg.max_distance = kOpenCeiling;
      select_warm_intervals(acfg);
      if (kind == RunKind::kCeilingBound) {
        acfg.max_distance =
            std::max(acfg.min_distance, st.bound.whole.upper_limit);
      } else if (kind == RunKind::kPhaseCaps) {
        for (const PhaseDistanceBound& phase : st.bound.phases) {
          acfg.phase_caps.push_back(
              PhaseDistanceCap{phase.begin_iter, phase.upper_limit});
        }
      }
      Scope span(spans, "core.run_adaptive");
      const AdaptiveRunResult run =
          st.context.run_adaptive(st.trace, st.config, acfg);
      span.count("records", records);
      span.count("intervals", static_cast<double>(run.intervals));
      count_provenance(span, run.aggregate.provenance);
      summary = run.aggregate;
      if (std::string problem = check_trajectory(run, acfg); !problem.empty()) {
        return problem;
      }
      std::ostringstream trajectory;
      for (const std::uint32_t d : run.distance_trajectory) {
        trajectory << d << ',';
      }
      detail = trajectory.str();
      walks_[key] =
          Walk{run.intervals, run.reclamps.size(), run.mean_distance()};
    }
    out.records += st.trace.size();
    if (std::string problem = check_lookup_partition(summary, key);
        !problem.empty()) {
      return problem;
    }
    const ProvenanceSummary& p = summary.provenance;
    if (!p.enabled) return "provenance was not tracked";
    const std::uint64_t fates = p.used_timely + p.used_late + p.evicted_unused +
                                p.polluting + p.resident_unused;
    if (fates != p.tracked_fills) {
      return "provenance fates sum to " + std::to_string(fates) +
             ", tracked_fills is " + std::to_string(p.tracked_fills);
    }
    SimSample sample = SimSample::of(summary, st.trace.size());
    sample.original_runtime = static_cast<double>(st.original.runtime);
    sample.detail = detail;
    return ledger_.record(key, sample, kind != RunKind::kStatic);
  }

  const Inputs inputs_;
  std::unique_ptr<State> state_;
  std::map<std::string, Walk> walks_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_adaptive_late(const Inputs& inputs) {
  return std::make_unique<AdaptiveLateBench>(inputs);
}

}  // namespace perfbench
