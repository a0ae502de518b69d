#include <algorithm>
#include <fstream>
#include <set>

#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "gen.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

double median_setup_s(int repeats, const std::function<void()>& setup) {
  std::vector<double> times;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t start = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return median(std::move(times));
}

std::map<std::string, double> registry_values() {
  std::map<std::string, double> values;
  for (const auto& row : vmcons::metrics::registry().snapshot()) {
    values[row.name] = row.value;
  }
  return values;
}

double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

std::vector<Sample> run_for(
    double seconds, std::uint32_t first_run,
    const std::function<Sample(std::uint32_t)>& request) {
  std::vector<Sample> samples;
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint32_t run = first_run;
  do {
    samples.push_back(request(run++));
  } while (now_ns() < stop);
  return samples;
}

std::vector<double> latencies_of(const std::vector<Sample>& samples) {
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const Sample& sample : samples) {
    latencies.push_back(sample.latency_us);
  }
  return latencies;
}

void end_to_end(Report& report, const std::vector<Sample>& samples,
                const std::vector<double>& latencies_us,
                double cpu_s_per_request, double peak_rss_mb, double setup_s) {
  double busy_us = 0.0;
  std::uint64_t plans = 0;
  for (const Sample& sample : samples) {
    busy_us += sample.latency_us;
    plans += sample.plans;
  }
  report.metric("plans_per_s", static_cast<double>(plans) / (busy_us / 1e6),
                "1/s");
  report.metric("plan_p50_us", percentile(latencies_us, 0.50), "us");
  report.metric("plan_p99_us", percentile(latencies_us, 0.99), "us");
  report.metric("peak_rss_mb", peak_rss_mb, "MB");
  report.metric("cpu_s", cpu_s_per_request, "s");
  report.metric("setup_s", setup_s, "s");
  report.input("requests", static_cast<double>(samples.size()));
  report.input("plans", static_cast<double>(plans));
  report.input("latency_samples", static_cast<double>(latencies_us.size()));
}

void trace_health(Report& report, const Trace& trace, const Split& split,
                  const std::vector<Sample>& untraced,
                  const std::vector<Sample>& traced) {
  const double requests = static_cast<double>(traced.size());
  const double total_ms = trace.total_ms("request", "request") / requests;
  double split_ms = 0.0;
  for (const auto& [layer, ms] : split) {
    report.metric(layer + ".self_ms", ms, "ms");
    split_ms += ms;
  }
  const double coverage = split_ms / total_ms;
  if (!(coverage >= 0.9 && coverage <= 1.1)) {
    report.fail(1, "trace coverage " + std::to_string(coverage) +
                       " is outside [0.9, 1.1]");
  }
  const double base = median(latencies_of(untraced));
  report.metric("trace.requests", requests, "count");
  report.metric("trace.spans", static_cast<double>(trace.spans().size()),
                "count");
  report.metric("trace.total_ms", total_ms, "ms");
  report.metric("trace.coverage", coverage, "ratio");
  report.metric("trace.overhead_pct",
                base > 0.0 ? 100.0 * (median(latencies_of(traced)) - base) / base
                           : 0.0,
                "%");
}

void write_trace(const Config& config, const Trace& trace) {
  if (config.trace_path.empty()) {
    return;
  }
  std::ofstream out(config.trace_path);
  trace.write_chrome_json(out, 200000);
}

double write_light_store(const std::string& path, std::uint64_t seed,
                         std::uint64_t scenarios, std::size_t shard_size) {
  std::int64_t writer_ns = 0;
  std::int64_t start = now_ns();
  vmcons::core::ScenarioStoreWriter writer(path, shard_size);
  writer_ns += now_ns() - start;
  for (std::uint64_t i = 0; i < scenarios; ++i) {
    const vmcons::core::ModelInputs inputs = light_scenario(seed, i);
    start = now_ns();
    writer.append(inputs);
    writer_ns += now_ns() - start;
  }
  start = now_ns();
  writer.finish();
  writer_ns += now_ns() - start;
  return static_cast<double>(writer_ns) / 1e6;
}

std::uint64_t digest_one(const vmcons::core::ModelResult& result) {
  const std::uint8_t evaluated = 1;
  return vmcons::core::checksum_model_results({&result, 1}, {&evaluated, 1});
}

void add_erlang_metrics(Report& report, const PerRequest& per_request) {
  const double evaluations = per_request("erlang.evaluations");
  const double hits = per_request("erlang.cache_hits");
  const double steps = per_request("erlang.steps");
  report.metric("queueing.erlang.evaluations", evaluations, "count");
  report.metric("queueing.erlang.cache_hits", hits, "count");
  report.metric("queueing.erlang.hit_ratio",
                evaluations > 0 ? hits / evaluations : 0.0, "ratio");
  report.metric("queueing.erlang.steps", steps, "count");
  report.metric("queueing.erlang.steps_per_eval",
                evaluations > 0 ? steps / evaluations : 0.0, "count");
  report.metric("queueing.erlang.merges", per_request("erlang.merges"),
                "count");
}

void add_fs_metrics(Report& report, const PerRequest& per_request,
                    double shards) {
  const double fsyncs = per_request("fs.fsyncs");
  report.metric("util.fs.fsyncs", fsyncs, "count");
  report.metric("util.fs.fsyncs_per_shard", shards > 0 ? fsyncs / shards : 0.0,
                "count");
  report.metric("util.fs.bytes_written", per_request("fs.bytes_written"), "B");
  report.metric("util.fs.commits", per_request("fs.commits"), "count");
  report.metric("util.fs.eio_retries", per_request("fs.eio_retries"), "count");
}

std::vector<std::size_t> sample_indices(std::uint64_t seed,
                                        std::size_t population,
                                        std::size_t count) {
  Rng rng = Rng::stream(seed, 99);
  std::set<std::size_t> picked;
  count = std::min(count, population);
  while (picked.size() < count) {
    picked.insert(static_cast<std::size_t>(rng.between(0, population - 1)));
  }
  return {picked.begin(), picked.end()};
}

}  // namespace perfbench
