// Shared types of the benchmark: seeded inputs, the per-workload
// interface, and the ledger of modelled results the sim_* metrics and the
// output checks read.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "spf/core/experiment.hpp"
#include "spf/mem/geometry.hpp"
#include "spf/workloads/em3d.hpp"
#include "spf/workloads/health.hpp"
#include "spf/workloads/mcf.hpp"
#include "spf/workloads/mst.hpp"
#include "spf/workloads/synthetic.hpp"

namespace perfbench {

/// Every input config, generated from the workload seed alone. The sizes are
/// the CI-scale configs of bench/bench_common.hpp (advisor inputs: those of
/// examples/sp_advisor.cpp), copied so that later edits there do not move
/// this benchmark's baseline.
struct Inputs {
  spf::CacheGeometry l2{1 << 20, 16, 64};
  spf::Em3dConfig em3d;
  spf::Em3dConfig em3d_late;
  spf::McfConfig mcf;
  spf::MstConfig mst;
  spf::HealthConfig health;
  spf::SyntheticConfig synthetic;
};

/// Seed 42 reproduces the repo's pinned seeds: em3d 42, mcf 43, mst 44,
/// synthetic 45, health 46.
[[nodiscard]] Inputs make_inputs(std::uint64_t seed);

/// The sweep engine's automatic distance ladder around a Set-Affinity bound.
[[nodiscard]] std::vector<std::uint32_t> auto_ladder(std::uint32_t bound);

/// One simulator run's modelled result, main core's view.
struct SimSample {
  double original_runtime = 0.0;  // 0 when the run has no baseline
  double runtime = 0.0;
  std::uint64_t records = 0;
  std::uint64_t l2_lookups = 0;
  std::uint64_t totally_hits = 0;
  std::uint64_t partially_hits = 0;
  std::uint64_t totally_misses = 0;
  std::uint64_t memory_requests = 0;
  std::uint64_t pollution_case1 = 0;
  std::uint64_t pollution_case2 = 0;
  std::uint64_t pollution_case3 = 0;
  std::uint64_t helper_finish = 0;
  std::uint64_t tracked_fills = 0;
  std::uint64_t used_timely = 0;
  std::uint64_t used_late = 0;
  std::uint64_t polluting = 0;
  /// Extra identity of the result (trajectory, recommendation, ...): two
  /// runs of one configuration must agree on it too.
  std::string detail;

  [[nodiscard]] static SimSample of(const spf::SpRunSummary& sp,
                                    std::uint64_t records);
  [[nodiscard]] std::string fingerprint() const;
};

/// Returns "" when the summary's lookups are partitioned exactly by
/// totally hits + partially hits + totally misses, else the reason.
[[nodiscard]] std::string check_lookup_partition(const spf::SpRunSummary& s,
                                                 const std::string& what);

/// First-seen result per configuration key. Every later run of the same key
/// — a later rep, or the traced run of an untraced op — must reproduce it
/// exactly; the first rotation's samples feed the sim_* metrics.
class ResultLedger {
 public:
  /// Returns "" on first sight or exact agreement, else the mismatch.
  std::string record(const std::string& key, const SimSample& sample,
                     bool deployed);
  [[nodiscard]] const std::map<std::string, std::pair<SimSample, bool>>&
  entries() const noexcept {
    return entries_;
  }

 private:
  std::map<std::string, std::pair<SimSample, bool>> entries_;
};

/// Work one round did. A round is the loop's unit: one sweep (27 cells), one
/// advise call, or one adaptive-late run.
struct RoundResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Main-trace records replayed by CmpSimulator runs.
  std::uint64_t records = 0;
  std::vector<std::string> errors;

  void fail(std::string why, std::uint64_t ops_lost = 1) {
    failed += ops_lost;
    errors.push_back(std::move(why));
  }
};

/// Per-layer values a workload computes from results rather than spans.
using ExactMetrics = std::map<std::string, double>;

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Builds inputs, contexts and memo, and warms up; drops any earlier
  /// state first. `spans` is null outside the traced run.
  virtual void setup(SpanLog* spans) = 0;
  /// Threads the workload's ops run on.
  [[nodiscard]] virtual unsigned threads() const = 0;
  /// Rounds that deploy every configuration once.
  [[nodiscard]] virtual std::size_t rounds_per_rotation() const = 0;
  /// Runs round `r` (closed loop) and checks its outputs.
  virtual RoundResult run_round(std::size_t r, SpanLog* spans) = 0;
  /// Times the components (helper cursor, caches, prefetchers, profile
  /// passes, contexts) on each of the workload's own input streams.
  virtual void probe(SpanLog& spans) = 0;
  /// Exact per-layer values (counts and modelled ratios) over one rotation.
  [[nodiscard]] virtual ExactMetrics exact_metrics() const = 0;
  [[nodiscard]] const ResultLedger& ledger() const noexcept { return ledger_; }

 protected:
  ResultLedger ledger_;
};

[[nodiscard]] std::unique_ptr<BenchWorkload> make_sweep(const Inputs& inputs);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_advise(const Inputs& inputs);
[[nodiscard]] std::unique_ptr<BenchWorkload> make_adaptive_late(
    const Inputs& inputs);

/// Pool workers of the `sweep` workload.
constexpr unsigned kSweepWorkers = 2;

/// Adds a run's provenance fate counts to its span.
void count_provenance(Scope& span, const spf::ProvenanceSummary& p);

/// The probe pass over one input stream (see BenchWorkload::probe).
void probe_input(SpanLog& spans, const std::string& input,
                 const spf::TraceBuffer& trace,
                 const std::vector<std::uint32_t>& invocation_starts,
                 const spf::CacheGeometry& l2);

}  // namespace perfbench
