// `sweep`: run_sweep over em3d, mcf and mst with the automatic distance
// ladder (27 static cells), two pool workers and one shared
// ExperimentContextPool whose trace memo is filled during set-up. One sweep
// is in flight at a time; an op is a cell.
#include <algorithm>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "spf/core/experiment_context.hpp"
#include "spf/orchestrate/sweep.hpp"
#include "spf/orchestrate/workload_specs.hpp"

namespace perfbench {
namespace {

using namespace spf;

/// Cell spans open in SweepOptions::cell_hook and close in the progress
/// callback; both run on the worker thread, so the open span is per thread.
class CellSpans {
 public:
  CellSpans(SpanLog& spans, std::uint64_t parent,
            const std::map<std::string, std::uint64_t>& records)
      : spans_(spans), parent_(parent), records_(records) {}

  void open(const orchestrate::SweepCell& cell) {
    const std::lock_guard<std::mutex> lock(mu_);
    const std::thread::id self = std::this_thread::get_id();
    auto lane = lanes_.find(self);
    if (lane == lanes_.end()) {
      lane = lanes_.emplace(self, static_cast<std::uint32_t>(lanes_.size() + 1))
                 .first;
    }
    const std::uint64_t id = spans_.begin("orchestrate.cell", parent_,
                                          spans_.next_op(), lane->second);
    spans_.count(id, "records",
                 static_cast<double>(records_.at(cell.workload)));
    open_[self] = id;
  }

  void close() {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = open_.find(std::this_thread::get_id());
    if (it == open_.end()) return;  // the cell failed before its hook ran
    spans_.end(it->second);
    open_.erase(it);
  }

 private:
  SpanLog& spans_;
  const std::uint64_t parent_;
  const std::map<std::string, std::uint64_t>& records_;
  std::mutex mu_;
  std::map<std::thread::id, std::uint32_t> lanes_;
  std::map<std::thread::id, std::uint64_t> open_;
};

class SweepBench final : public BenchWorkload {
 public:
  explicit SweepBench(const Inputs& inputs) : inputs_(inputs) {}

  void setup(SpanLog* spans) override {
    state_.reset();
    auto st = std::make_unique<State>();
    st->pool = std::make_shared<ExperimentContextPool>(kSweepWorkers);
    st->spec.workloads = {orchestrate::em3d_spec(inputs_.em3d),
                          orchestrate::mcf_spec(inputs_.mcf),
                          orchestrate::mst_spec(inputs_.mst)};
    st->spec.geometries = {inputs_.l2};
    for (const orchestrate::WorkloadSpec& w : st->spec.workloads) {
      Scope span(spans, "workloads.emit_trace");
      const auto source = st->pool->trace_for(w.memo_key, w.make);
      st->records[w.name] = source->trace.size();
      st->sources.push_back(source);
      span.count("records", static_cast<double>(source->trace.size()));
      span.count("input." + w.name, 1);
    }
    // Warm-up: one baseline run on each pooled context, so the first sweep
    // does not pay for cold simulator storage.
    {
      const ExperimentContextPool::Lease a = st->pool->acquire();
      const ExperimentContextPool::Lease b = st->pool->acquire();
      SpExperimentConfig cfg;
      cfg.sim.l2 = inputs_.l2;
      (void)a->run_original(st->sources[0]->trace, cfg);
      (void)b->run_original(st->sources[0]->trace, cfg);
    }
    state_ = std::move(st);
  }

  [[nodiscard]] unsigned threads() const override { return kSweepWorkers; }
  [[nodiscard]] std::size_t rounds_per_rotation() const override { return 1; }

  RoundResult run_round(std::size_t /*r*/, SpanLog* spans) override {
    RoundResult out;
    Scope round(spans, "round.sweep");
    orchestrate::SweepOptions opts;
    opts.threads = kSweepWorkers;
    opts.pool = state_->pool;
    const auto memo_before = state_->pool->trace_memo_stats();
    orchestrate::SweepResult result;
    {
      Scope call(spans, "orchestrate.run_sweep");
      std::unique_ptr<CellSpans> cells;
      if (spans != nullptr) {
        cells = std::make_unique<CellSpans>(*spans, call.id(), state_->records);
        opts.cell_hook = [&cells](const orchestrate::SweepCell& cell) {
          cells->open(cell);
        };
        opts.progress = [&cells](std::size_t, std::size_t) { cells->close(); };
      }
      try {
        result = orchestrate::run_sweep(state_->spec, opts);
      } catch (const std::exception& e) {
        out.ops = kExpectedCells;
        out.fail(std::string("run_sweep threw: ") + e.what(), kExpectedCells);
        return out;
      }
    }
    const auto memo_after = state_->pool->trace_memo_stats();
    memo_hits_ += memo_after.hits - memo_before.hits;
    memo_misses_ += memo_after.misses - memo_before.misses;
    out.ops = result.cells.size();

    std::string csv;
    {
      Scope call(spans, "orchestrate.SweepResult.to_csv");
      csv = result.to_csv();
    }
    if (first_csv_.empty()) {
      first_csv_ = csv;
    } else if (csv != first_csv_) {
      out.fail("sweep CSV differs from the first rep's", out.ops);
      return out;
    }

    // Per plane, the largest ladder distance the plane's bound allows (the
    // smallest ladder distance when the bound allows none).
    std::map<std::string, std::uint32_t> allowed;
    std::map<std::string, std::uint32_t> smallest;
    for (const orchestrate::CellResult& c : result.cells) {
      DistanceBound bound;
      bound.upper_limit = c.cell.bound_upper;
      std::uint32_t& low = smallest[c.cell.workload];
      low = low == 0 ? c.cell.distance : std::min(low, c.cell.distance);
      if (bound.allows(c.cell.distance)) {
        allowed[c.cell.workload] =
            std::max(allowed[c.cell.workload], c.cell.distance);
      }
    }
    for (const auto& [workload, low] : smallest) {
      if (allowed[workload] == 0) allowed[workload] = low;
    }
    std::map<std::string, bool> baseline_counted;
    for (const orchestrate::CellResult& c : result.cells) {
      const std::string key = "cell/" + std::to_string(c.cell.id);
      if (!c.ok || !c.cmp) {
        out.fail(key + " failed: " + c.error);
        continue;
      }
      const std::uint64_t records = state_->records.at(c.cell.workload);
      out.records += records;
      if (!baseline_counted[c.cell.workload]) {
        baseline_counted[c.cell.workload] = true;
        out.records += records;  // the plane's baseline run
      }
      std::string problem =
          check_lookup_partition(c.cmp->original, key + " original");
      if (problem.empty()) {
        problem = check_lookup_partition(c.cmp->sp, key + " sp");
      }
      SimSample sample = SimSample::of(c.cmp->sp, records);
      sample.original_runtime = static_cast<double>(c.cmp->original.runtime);
      if (problem.empty()) {
        problem = ledger_.record(
            key, sample, c.cell.distance == allowed[c.cell.workload]);
      }
      if (!problem.empty()) out.fail(problem);
    }
    return out;
  }

  void probe(SpanLog& spans) override {
    for (std::size_t w = 0; w < state_->sources.size(); ++w) {
      probe_input(spans, state_->spec.workloads[w].name,
                  state_->sources[w]->trace,
                  state_->sources[w]->invocation_starts, inputs_.l2);
    }
  }

  [[nodiscard]] ExactMetrics exact_metrics() const override {
    const std::uint64_t lookups = memo_hits_ + memo_misses_;
    return {{"orchestrate.memo_hit_rate",
             lookups == 0 ? 0.0
                          : static_cast<double>(memo_hits_) /
                                static_cast<double>(lookups)}};
  }

 private:
  static constexpr std::uint64_t kExpectedCells = 27;

  struct State {
    std::shared_ptr<ExperimentContextPool> pool;
    orchestrate::SweepSpec spec;
    std::vector<std::shared_ptr<const TraceSource>> sources;
    std::map<std::string, std::uint64_t> records;
  };

  const Inputs inputs_;
  std::unique_ptr<State> state_;
  std::string first_csv_;
  std::uint64_t memo_hits_ = 0;
  std::uint64_t memo_misses_ = 0;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_sweep(const Inputs& inputs) {
  return std::make_unique<SweepBench>(inputs);
}

}  // namespace perfbench
