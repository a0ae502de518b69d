// vmcons_perfbench: runs one benchmark workload and prints its metrics.
//
//   vmcons_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir DIR] [--trace-out FILE] [--git-rev REV]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The line before it records the box, the build, and the
// inputs. perfbench/run.py builds this binary and is the usual entry point.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "box.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"plans_per_s", "1/s"}, {"plan_p50_us", "us"}, {"plan_p99_us", "us"},
    {"peak_rss_mb", "MB"},  {"cpu_s", "s"},        {"setup_s", "s"},
};

/// The per-layer metrics of the workloads BENCHMARK.json lists, printed on
/// every workload: a layer a workload does not exercise reads 0, which is
/// itself the prediction ("a kernel change moves nothing here"). A workload
/// that produces more (whatif_batch's core.batch baselines) prints those
/// after them.
constexpr MetricName kPerLayer[] = {
    {"queueing.erlang.evaluations", "count"},
    {"queueing.erlang.cache_hits", "count"},
    {"queueing.erlang.hit_ratio", "ratio"},
    {"queueing.erlang.steps", "count"},
    {"queueing.erlang.steps_per_eval", "count"},
    {"queueing.erlang.merges", "count"},
    {"core.batch.staff_dedicated_ms", "ms"},
    {"core.batch.staff_consolidated_ms", "ms"},
    {"core.batch.derive_ms", "ms"},
    {"core.batch.lock_wait_ms", "ms"},
    {"core.batch.self_ms", "ms"},
    {"core.store.shards", "count"},
    {"core.store.read_ms", "ms"},
    {"core.store.bytes_read", "B"},
    {"core.store.read_MBps", "MB/s"},
    {"core.store.bytes_per_plan", "B"},
    {"core.store.write_ms", "ms"},
    {"core.store.self_ms", "ms"},
    {"core.stream.eval_ms", "ms"},
    {"core.stream.digest_ms", "ms"},
    {"core.stream.checkpoint_ms", "ms"},
    {"core.stream.driver_self_ms", "ms"},
    {"core.stream.self_ms", "ms"},
    {"core.shard.workers", "count"},
    {"core.shard.fleet_ms", "ms"},
    {"core.shard.worker_ms_max", "ms"},
    {"core.shard.worker_ms_min", "ms"},
    {"core.shard.merge_ms", "ms"},
    {"core.shard.claim_us", "us"},
    {"core.shard.claim_conflicts", "count"},
    {"core.shard.reclaims", "count"},
    {"core.shard.stream_1proc_plans_per_s", "1/s"},
    {"core.shard.scaling_eff", "ratio"},
    {"core.shard.self_ms", "ms"},
    {"util.fs.fsyncs", "count"},
    {"util.fs.fsyncs_per_shard", "count"},
    {"util.fs.bytes_written", "B"},
    {"util.fs.commits", "count"},
    {"util.fs.eio_retries", "count"},
    {"core.io.parse_us_p50", "us"},
    {"core.io.parse_us_p99", "us"},
    {"core.io.self_ms", "ms"},
    {"core.plan.solve_us_p50", "us"},
    {"core.plan.solve_us_p99", "us"},
    {"core.plan.samples", "count"},
    {"core.plan.self_ms", "ms"},
    {"perfbench.self_ms", "ms"},
    {"trace.requests", "count"},
    {"trace.spans", "count"},
    {"trace.total_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_pct", "%"},
};

/// Wall-clock scaling metrics: omitted when a workload would run more
/// threads or processes than the box has usable cores, because an
/// oversubscribed ratio measures the scheduler, not the program.
bool is_scaling_metric(const std::string& name) {
  return name == "core.batch.scaling_eff" || name == "core.shard.scaling_eff";
}

std::string number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int usage(const std::string& why) {
  std::cerr << "vmcons_perfbench: " << why
            << "\nusage: vmcons_perfbench --workload "
               "whatif_batch|stream_sweep|sharded_sweep|plan_ini --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE] "
               "[--git-rev REV]\n";
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("bad argument '" + key + "'");
    }
    args[key.substr(2)] = argv[++i];
  }
  static const std::vector<std::string> kKnown = {
      "workload", "seed", "seconds", "trace", "work-dir", "trace-out", "git-rev"};
  for (const auto& [key, value] : args) {
    if (std::find(kKnown.begin(), kKnown.end(), key) == kKnown.end()) {
      return usage("unknown flag --" + key);
    }
  }
  const std::map<std::string, Report (*)(const Config&)> workloads = {
      {"whatif_batch", run_whatif_batch},
      {"stream_sweep", run_stream_sweep},
      {"sharded_sweep", run_sharded_sweep},
      {"plan_ini", run_plan_ini},
  };
  const auto workload = workloads.find(args["workload"]);
  if (workload == workloads.end()) {
    return usage("unknown workload '" + args["workload"] + "'");
  }
  Config config;
  try {
    config.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    config.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
  } catch (const std::exception&) {
    return usage("--seed and --seconds take numbers");
  }
  const std::string trace_flag = args.count("trace") ? args["trace"] : "0";
  if (trace_flag != "0" && trace_flag != "1") {
    return usage("--trace takes 0 or 1");
  }
  if (!(config.seconds > 0.0 && config.seconds <= 3600.0)) {
    return usage("--seconds must be in (0, 3600]");
  }
  config.trace = trace_flag == "1";
  config.trace_path = config.trace && args.count("trace-out") ? args["trace-out"] : "";
  config.box = probe_box();
  const std::string git_rev = args.count("git-rev") ? args["git-rev"] : "unknown";

  // Every file a run writes lives under its own work directory, removed on
  // the way out whatever happens.
  const std::filesystem::path work =
      std::filesystem::absolute(args.count("work-dir") ? args["work-dir"]
                                                       : "perfbench-work") /
      ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);
  config.work_dir = work.string();
  struct Cleanup {
    std::filesystem::path path;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{work};

  Report report = workload->second(config);

  std::map<std::string, const Metric*> produced;
  for (const Metric& metric : report.metrics) {
    produced[metric.name] = &metric;
  }
  const unsigned parallelism = workload_parallelism(config.box);
  const bool oversubscribed = parallelism > config.box.cores;
  std::vector<Metric> printed;
  if (config.trace) {
    for (const MetricName& m : kPerLayer) {
      const auto it = produced.find(m.name);
      printed.push_back({m.name, it == produced.end() ? 0.0 : it->second->value,
                         m.unit});
      if (it != produced.end()) {
        produced.erase(it);
      }
    }
    for (const auto& entry : produced) {
      printed.push_back(*entry.second);
    }
    std::erase_if(printed, [&](const Metric& metric) {
      return oversubscribed && is_scaling_metric(metric.name);
    });
  } else {
    for (const MetricName& m : kEndToEnd) {
      const auto it = produced.find(m.name);
      if (it == produced.end()) {
        std::cerr << "vmcons_perfbench: workload did not produce " << m.name
                  << "\n";
        return 1;
      }
      printed.push_back({m.name, it->second->value, m.unit});
    }
  }
  for (Metric& metric : printed) {
    if (!std::isfinite(metric.value)) {
      report.fail(1, "metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  if (report.attempted == 0) {
    report.fail(1, "no operation attempted");
    report.attempted = 1;
  }

  for (const Metric& metric : printed) {
    std::cerr << "  " << metric.name << " = " << number(metric.value) << " "
              << metric.unit << "\n";
  }
  const double fail_ratio = static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted);
  std::cerr << "  fail_ratio = " << number(fail_ratio) << " (" << report.failed
            << " of " << report.attempted << ")\n";
  for (const std::string& error : report.errors) {
    std::cerr << "  FAILED: " << error << "\n";
  }

  std::ostringstream info;
  info << "{\"perfbench\": {\"workload\": " << json_string(args["workload"])
       << ", \"seed\": " << config.seed << ", \"seconds\": " << number(config.seconds)
       << ", \"trace\": " << (config.trace ? 1 : 0)
       << ", \"fail_ratio\": " << number(fail_ratio)
       << ", \"box\": {\"nproc\": " << config.box.nproc
       << ", \"cores\": " << config.box.cores
       << ", \"cpu_quota\": " << number(config.box.cpu_quota)
       << ", \"cpu_model\": " << json_string(config.box.cpu_model)
       << ", \"simd_lanes\": " << config.box.simd_lanes
       << ", \"compiler\": " << json_string(config.box.compiler)
       << ", \"build_type\": " << json_string(config.box.build_type)
       << ", \"git_rev\": " << json_string(git_rev)
       << ", \"parallelism\": " << parallelism
       << ", \"oversubscribed\": " << (oversubscribed ? "true" : "false")
       << "}, \"inputs\": {";
  for (std::size_t i = 0; i < report.inputs.size(); ++i) {
    info << (i ? ", " : "") << json_string(report.inputs[i].first) << ": "
         << report.inputs[i].second;
  }
  info << "}, \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    info << (i ? ", " : "") << json_string(report.errors[i]);
  }
  info << "]}}";
  std::cout << info.str() << "\n";

  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(printed[i].name)
              << ": {\"value\": " << number(printed[i].value)
              << ", \"unit\": " << json_string(printed[i].unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "vmcons_perfbench: " << error.what() << "\n";
    return 1;
  }
}
