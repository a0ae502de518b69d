// whatif_batch: one in-memory what-if grid evaluated as a single batch on a
// min(4, nproc)-thread pool, with a cold Erlang kernel per request.
//
// Why: the Erlang walk, the column kernels and the pool do almost all of
// the work, with no I/O. Heavy portfolios (2k-20k Erlangs) make the walk
// long, and the grid's distinct offered loads far exceed the kernel's
// 64-rho snapshot cap.
#include <memory>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "core/streaming_sweep.hpp"
#include "gen.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmcons;

Report run_whatif_batch(const Config& config) {
  Report report;
  const WhatIfShape shape =
      config.tiny ? WhatIfShape{2, 3, 3} : WhatIfShape{28, 8, 4};
  const unsigned threads = workload_parallelism(config.box);

  std::vector<core::ModelInputs> cells;
  std::unique_ptr<ThreadPool> pool;
  const double setup_s = median_setup_s(31, [&] {
    pool.reset();
    cells = whatif_cells(config.seed, shape);
    pool = std::make_unique<ThreadPool>(threads);
  });
  const std::size_t n = cells.size();
  report.input("portfolios", static_cast<double>(shape.portfolios));
  report.input("losses", static_cast<double>(shape.losses));
  report.input("scales", static_cast<double>(shape.scales));
  report.input("cells", static_cast<double>(n));
  report.input("threads", static_cast<double>(threads));

  core::BatchOptions options;
  options.pool = pool.get();
  options.policy = core::FailurePolicy::kQuarantine;

  // Per-request digests and the first request's results, for the oracle.
  std::vector<std::uint64_t> digests;
  std::vector<core::ModelResult> first;
  std::uint64_t quarantined = 0;

  Trace trace(config.trace);
  Trace untraced_trace(false);
  const auto request_on = [&](Trace& t) {
    return [&](std::uint32_t run) {
      core::BatchOutcome outcome;
      const std::int64_t start = now_ns();
      {
        t.set_run(run);
        Scope request(t, "request");
        core::ScenarioBatch batch;
        {
          Scope span(t, "core.batch.build");
          batch = core::ScenarioBatch::from_inputs(cells);
        }
        // Cold: every request starts from an empty recursion cache.
        queueing::ErlangKernel kernel;
        core::BatchOptions cold = options;
        cold.kernel = &kernel;
        Scope span(t, "core.batch.evaluate_all");
        outcome = core::BatchEvaluator(cold).evaluate_all(batch);
      }
      const double latency_us = static_cast<double>(now_ns() - start) / 1e3;
      digests.push_back(
          core::checksum_model_results(outcome.results, outcome.evaluated));
      quarantined += n - outcome.evaluated_count();
      if (first.empty()) {
        first = std::move(outcome.results);
      }
      return Sample{latency_us, n};
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
    const auto per_request = [&](const std::string& name) {
      return delta(before, after, name) / requests;
    };

    add_erlang_metrics(report, per_request);

    const double evaluate_ms =
        trace.total_ms("core.batch.evaluate_all", "request") / requests;
    report.metric("core.batch.threads", threads, "count");
    report.metric("core.batch.build_ms",
                  trace.total_ms("core.batch.build", "request") / requests, "ms");
    report.metric("core.batch.evaluate_ms", evaluate_ms, "ms");
    report.metric("core.batch.lock_wait_ms", per_request("batch.lock_wait.ms"),
                  "ms");

    // Attribution: the same grid on one thread through the public span
    // kernels, each timed on its own. This is also the single-threaded
    // baseline the parallel evaluation is compared against.
    constexpr int kSerialPasses = 3;
    std::vector<double> serial_eval_ms;
    for (int pass = 0; pass < kSerialPasses; ++pass) {
      trace.set_run(static_cast<std::uint32_t>(1 + untraced.size() + traced.size() +
                                               pass));
      Scope root(trace, "attribution");
      core::ScenarioBatch batch;
      {
        Scope span(trace, "core.batch.build");
        batch = core::ScenarioBatch::from_inputs(cells);
      }
      queueing::ErlangKernel kernel;
      std::vector<core::ModelResult> results(n);
      const std::int64_t start = now_ns();
      {
        Scope span(trace, "core.batch.staff_dedicated");
        core::batch_kernels::staff_dedicated(batch, 0, n, &kernel, results);
      }
      {
        Scope span(trace, "core.batch.staff_consolidated");
        core::batch_kernels::staff_consolidated(batch, 0, n, &kernel, results);
      }
      {
        Scope span(trace, "core.batch.derive");
        core::batch_kernels::staff_fleet(batch, 0, n, results);
        core::batch_kernels::derive_utility(batch, 0, n, results);
        core::batch_kernels::derive_power(batch, 0, n, results);
      }
      {
        Scope span(trace, "queueing.publish");
        kernel.publish();
      }
      serial_eval_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
      const std::vector<std::uint8_t> all(n, 1);
      if (core::checksum_model_results(results, all) != digests.front()) {
        report.fail(n, "serial span-kernel pass differs from the parallel batch");
      }
    }
    const auto attributed = [&](const char* name) {
      return trace.total_ms(name, "attribution") / kSerialPasses;
    };
    const double serial_ms = median(serial_eval_ms);
    const double serial_build_ms = attributed("core.batch.build");
    report.metric("core.batch.staff_dedicated_ms",
                  attributed("core.batch.staff_dedicated"), "ms");
    report.metric("core.batch.staff_consolidated_ms",
                  attributed("core.batch.staff_consolidated"), "ms");
    report.metric("core.batch.derive_ms", attributed("core.batch.derive"), "ms");
    report.metric("core.batch.serial_plans_per_s",
                  static_cast<double>(n) / ((serial_build_ms + serial_ms) / 1e3),
                  "1/s");
    report.metric("core.batch.scaling_eff", serial_ms / (threads * evaluate_ms),
                  "ratio");
    trace_health(report, trace,
                 {{"core.batch",
                   trace.total_ms("core.batch.build", "request") / requests +
                       evaluate_ms}},
                 untraced, traced);
    write_trace(config, trace);
  }

  // Oracle: every request answered the grid identically, nothing was
  // quarantined, and a seeded sample of cells equals a scalar solve() of the
  // same inputs bit for bit.
  report.attempted = digests.size() * n;
  report.fail(quarantined, "quarantined or unevaluated cells");
  for (std::size_t r = 1; r < digests.size(); ++r) {
    if (digests[r] != digests.front()) {
      report.fail(n, "request " + std::to_string(r) +
                         " differs from the first request");
    }
  }
  for (const std::size_t cell : sample_indices(config.seed, n, 32)) {
    const core::ModelResult scalar = core::UtilityAnalyticModel(cells[cell]).solve();
    if (digest_one(scalar) != digest_one(first[cell])) {
      report.fail(1, "cell " + std::to_string(cell) +
                         " differs from the scalar solve()");
    }
  }
  return report;
}

}  // namespace perfbench
