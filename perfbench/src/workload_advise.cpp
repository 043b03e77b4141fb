// `advise`: a rotation of one-shot advise_sp calls with validation on, over
// em3d encoded in the IR, mcf, mst, health and synthetic. Each op builds and
// emits its own input, as examples/sp_advisor.cpp does; one thread. The
// traced op calls the functions advise_sp composes one at a time and must
// reach advise_sp's recommendation.
#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "bench.hpp"
#include "spf/core/advisor.hpp"
#include "spf/core/distance_bound.hpp"
#include "spf/ir/interp.hpp"
#include "spf/workloads/em3d_ir.hpp"

namespace perfbench {
namespace {

using namespace spf;

struct Input {
  std::string name;
  TraceBuffer trace;
  std::vector<std::uint32_t> invocation_starts;
};

class AdviseBench final : public BenchWorkload {
 public:
  explicit AdviseBench(const Inputs& inputs) : inputs_(inputs) {}

  void setup(SpanLog* spans) override {
    // Each op builds its own input, so set-up is the warm-up alone: one
    // untimed call on the smallest input.
    (void)advise_untraced(build(kSynthetic, spans));
  }

  [[nodiscard]] unsigned threads() const override { return 1; }
  [[nodiscard]] std::size_t rounds_per_rotation() const override {
    return kInputs;
  }

  RoundResult run_round(std::size_t r, SpanLog* spans) override {
    RoundResult out;
    out.ops = 1;
    Scope op(spans, "op.advise", /*new_op=*/true);
    try {
      const Input input = build(r % kInputs, spans);
      op.count("input." + input.name, 1);
      const AdvisorReport report = spans == nullptr
                                       ? advise_untraced(input)
                                       : advise_traced(input, spans);
      if (!report.validation) {
        out.fail(input.name + ": advisor returned no validation");
        return out;
      }
      out.records = 2 * input.trace.size();  // original + SP validation
      std::string problem = check_lookup_partition(
          report.validation->original, input.name + " original");
      if (problem.empty()) {
        problem =
            check_lookup_partition(report.validation->sp, input.name + " sp");
      }
      SimSample sample =
          SimSample::of(report.validation->sp, input.trace.size());
      sample.original_runtime =
          static_cast<double>(report.validation->original.runtime);
      std::ostringstream detail;
      detail << "a_ski=" << report.recommended.a_ski
             << ",a_pre=" << report.recommended.a_pre
             << ",upper=" << report.bound.upper_limit
             << ",fallback=" << report.sa.cumulative_fallback
             << ",recommended=" << report.sp_recommended;
      sample.detail = detail.str();
      if (problem.empty()) {
        problem = ledger_.record("advise/" + input.name, sample, true);
      }
      if (!problem.empty()) out.fail(problem);
    } catch (const std::exception& e) {
      out.fail(std::string("advise op threw: ") + e.what());
    }
    return out;
  }

  void probe(SpanLog& spans) override {
    for (std::size_t i = 0; i < kInputs; ++i) {
      const Input input = build(i, nullptr);
      probe_input(spans, input.name, input.trace, input.invocation_starts,
                  inputs_.l2);
    }
  }

  [[nodiscard]] ExactMetrics exact_metrics() const override { return {}; }

 private:
  static constexpr std::size_t kInputs = 5;
  static constexpr std::size_t kSynthetic = 4;

  Input build(std::size_t i, SpanLog* spans) const {
    Input in;
    if (i == 0) {
      in.name = "em3d-ir";
      Em3dIr ir;
      {
        Scope span(spans, "ir.build_em3d_ir");
        const Em3dWorkload model(inputs_.em3d);
        ir = build_em3d_ir(model);
        in.invocation_starts = model.invocation_starts();
      }
      Scope span(spans, "ir.interpret");
      ir::InterpResult run = ir::interpret(ir.program, ir.memory);
      span.count("ops", static_cast<double>(run.loads + run.stores));
      span.count("records", static_cast<double>(run.trace.size()));
      in.trace = std::move(run.trace);
      return in;
    }
    Scope span(spans, "workloads.emit_trace");
    std::unique_ptr<Workload> workload;
    switch (i) {
      case 1:
        workload = std::make_unique<McfWorkload>(inputs_.mcf);
        break;
      case 2:
        workload = std::make_unique<MstWorkload>(inputs_.mst);
        break;
      case 3:
        workload = std::make_unique<HealthWorkload>(inputs_.health);
        break;
      default:
        workload = std::make_unique<SyntheticWorkload>(inputs_.synthetic);
        break;
    }
    in.name = workload->name();
    in.trace = workload->emit_trace();
    in.invocation_starts = workload->invocation_starts();
    span.count("records", static_cast<double>(in.trace.size()));
    span.count("input." + in.name, 1);
    return in;
  }

  AdvisorReport advise_untraced(const Input& input) const {
    return advise_sp(input.trace, input.invocation_starts,
                     AdvisorConfig{.l2 = inputs_.l2});
  }

  /// advise_sp's composition, one public call at a time (validation on).
  AdvisorReport advise_traced(const Input& input, SpanLog* spans) const {
    const AdvisorConfig config{.l2 = inputs_.l2};
    const TraceBuffer& trace = input.trace;
    const auto records = static_cast<double>(trace.size());
    AdvisorReport report;
    {
      Scope span(spans, "profile.classify_patterns");
      report.patterns = classify_patterns(
          trace, PatternConfig{.line_bytes = config.l2.line_bytes()});
      span.count("records", records);
    }
    if (report.patterns.irregular_fraction < config.min_irregular_fraction) {
      report.sp_recommended = false;
    }
    {
      Scope span(spans, "profile.detect_phases");
      report.phases = detect_phases(trace, config.l2);
      span.count("records", records);
    }
    {
      Scope span(spans, "profile.estimate_calr");
      CalrConfig calr = config.calr;
      calr.l2 = config.l2;
      report.calr = estimate_calr(trace, calr);
      span.count("records", records);
    }
    report.rp = SpParams::rp_from_calr(report.calr.calr);
    {
      Scope span(spans, "profile.analyze_workload_sa");
      report.sa =
          analyze_workload_sa(trace, input.invocation_starts, config.l2);
      span.count("records", records);
    }
    std::uint32_t distance = kUnboundedDefaultDistance;
    if (report.sa.merged.any_saturated()) {
      report.bound.original_min_sa = report.sa.merged.min_sa();
      report.bound.upper_limit =
          std::max<std::uint32_t>(1, report.bound.original_min_sa / 2);
      distance = margin(config, report.bound.upper_limit);
      {
        Scope span(spans, "core.refine_with_helper");
        report.bound = refine_with_helper(
            report.bound, trace, input.invocation_starts,
            SpParams::from_distance_rp(distance, report.rp), config.l2);
        span.count("records", records);
      }
      distance = std::min(distance, margin(config, report.bound.upper_limit));
    } else {
      report.bound.upper_limit = std::numeric_limits<std::uint32_t>::max();
    }
    report.recommended = SpParams::from_distance_rp(distance, report.rp);
    SpExperimentConfig exp;
    exp.sim.l2 = config.l2;
    exp.params = report.recommended;
    {
      Scope span(spans, "core.run_sp_experiment");
      report.validation = run_sp_experiment(trace, exp);
      span.count("records", 2 * records);
    }
    const double norm = report.validation->norm_runtime();
    if (norm > 0.98) {
      report.sp_recommended = false;
    } else if (!report.sp_recommended && norm < 0.9) {
      report.sp_recommended = true;
    }
    return report;
  }

  static std::uint32_t margin(const AdvisorConfig& config,
                              std::uint32_t upper) {
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::floor(
               config.distance_margin * static_cast<double>(upper))));
  }

  /// advise_sp's recommendation when no set saturates.
  static constexpr std::uint32_t kUnboundedDefaultDistance = 32;

  const Inputs inputs_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_advise(const Inputs& inputs) {
  return std::make_unique<AdviseBench>(inputs);
}

}  // namespace perfbench
