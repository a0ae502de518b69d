// plan_ini: a closed loop with one client sending seeded scenario INI texts
// through parse + ConsolidationPlanner::plan(), one at a time.
//
// Why: this is the interactive operator path. It covers the scalar
// batch-of-one path and the INI parser, which no sweep touches, and it
// reports latency, not throughput.
#include "core/batch_eval.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "core/scenario_io.hpp"
#include "gen.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/ini.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmcons;

Report run_plan_ini(const Config& config) {
  Report report;
  const std::size_t text_count = config.tiny ? 64 : 4096;
  std::vector<std::string> texts;
  // The interactive path has no store to write and no pool to start, so
  // set-up is input generation alone: no library change can move setup_s
  // here.
  const double setup_s =
      median_setup_s(15, [&] { texts = plan_texts(config.seed, text_count); });
  report.input("texts", static_cast<double>(text_count));
  report.input("repeat_share", kPlanRepeatShare);
  report.input("clients", 1.0);

  // M and N each request answered, for the oracle (kFailed if it threw).
  constexpr std::uint64_t kFailed = ~std::uint64_t{0};
  std::vector<std::uint64_t> dedicated;
  std::vector<std::uint64_t> consolidated;
  std::uint64_t errors = 0;
  std::string first_error;

  Trace trace(config.trace);
  Trace untraced_trace(false);
  const auto request_on = [&](Trace& t) {
    return [&](std::uint32_t run) {
      const std::string& text = texts[run % texts.size()];
      const std::int64_t start = now_ns();
      std::uint64_t m = kFailed;
      std::uint64_t n = kFailed;
      try {
        t.set_run(run);
        Scope request(t, "request");
        core::ConsolidationPlanner planner;
        {
          Scope span(t, "core.io.parse");
          planner = core::scenario_planner(ini_parse(text));
        }
        Scope span(t, "core.plan.solve");
        const core::PlanReport plan = planner.plan();
        m = plan.model.dedicated_servers;
        n = plan.model.consolidated_servers;
      } catch (const std::exception& error) {
        ++errors;
        if (first_error.empty()) {
          first_error = error.what();
        }
      }
      const double latency_us = static_cast<double>(now_ns() - start) / 1e3;
      dedicated.push_back(m);
      consolidated.push_back(n);
      return Sample{latency_us, 1};
    };
  };

  request_on(untraced_trace)(0);  // warm-up, see run_for
  metrics::registry().reset();
  UsageMeter meter;
  if (!config.trace) {
    meter.start();
    const std::vector<Sample> samples =
        run_for(config.seconds, 1, request_on(untraced_trace));
    end_to_end(report, samples, latencies_of(samples),
               meter.cpu_s() / static_cast<double>(samples.size()),
               meter.peak_rss_mb(), setup_s);
  } else {
    const std::vector<Sample> untraced =
        run_for(config.seconds / 3, 1, request_on(untraced_trace));
    const auto before = registry_values();
    const std::vector<Sample> traced = run_for(
        config.seconds * 2 / 3, static_cast<std::uint32_t>(1 + untraced.size()),
        request_on(trace));
    const auto after = registry_values();
    const double requests = static_cast<double>(traced.size());
    add_erlang_metrics(report, [&](const std::string& name) {
      return delta(before, after, name) / requests;
    });
    const std::vector<double> parse_us = trace.durations_us("core.io.parse");
    const std::vector<double> solve_us = trace.durations_us("core.plan.solve");
    report.metric("core.io.parse_us_p50", percentile(parse_us, 0.50), "us");
    report.metric("core.io.parse_us_p99", percentile(parse_us, 0.99), "us");
    report.metric("core.plan.solve_us_p50", percentile(solve_us, 0.50), "us");
    report.metric("core.plan.solve_us_p99", percentile(solve_us, 0.99), "us");
    report.metric("core.plan.samples", static_cast<double>(solve_us.size()),
                  "count");
    // A request is these two calls back to back; coverage checks that the
    // benchmark's own code between them stays out of the figures.
    trace_health(report, trace,
                 {{"core.io", trace.total_ms("core.io.parse", "request") / requests},
                  {"core.plan",
                   trace.total_ms("core.plan.solve", "request") / requests}},
                 untraced, traced);
    write_trace(config, trace);
  }

  // Oracle: M and N of every answered request equal the batch path's answer
  // for the same text's inputs.
  const std::size_t answered = std::min(dedicated.size(), texts.size());
  std::vector<core::ModelInputs> inputs;
  inputs.reserve(answered);
  for (std::size_t t = 0; t < answered; ++t) {
    inputs.push_back(core::scenario_inputs(ini_parse(texts[t])));
  }
  queueing::ErlangKernel kernel;
  core::BatchOptions options;
  options.parallel = false;
  options.kernel = &kernel;
  const std::vector<core::ModelResult> batch =
      core::BatchEvaluator(options).evaluate(core::ScenarioBatch::from_inputs(inputs));
  report.attempted = dedicated.size();
  report.fail(errors, "plan() threw: " + first_error);
  std::uint64_t mismatched = 0;
  for (std::size_t r = 0; r < dedicated.size(); ++r) {
    const core::ModelResult& expected = batch[r % texts.size()];
    if (dedicated[r] == kFailed) {
      continue;  // counted above
    }
    if (dedicated[r] != expected.dedicated_servers ||
        consolidated[r] != expected.consolidated_servers) {
      ++mismatched;
    }
  }
  report.fail(mismatched, "M/N differ from the batch path");
  return report;
}

}  // namespace perfbench
