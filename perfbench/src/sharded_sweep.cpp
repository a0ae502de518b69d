// sharded_sweep: a light-scenario store with 1024-scenario shards, swept by
// min(4, nproc) forked ShardedSweepDriver workers, then merge().
//
// Why: it uses the same read layer as stream_sweep but adds the write side:
// claim files, fsync+rename result commits, and a merge that re-reads every
// result. A store or fs change that helps one sweep and costs the other
// shows up between the two workloads.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/scenario_store.hpp"
#include "core/sharded_sweep.hpp"
#include "core/streaming_sweep.hpp"
#include "gen.hpp"
#include "util/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmcons;

namespace {

/// What one worker process reported back through its timing file.
struct WorkerTiming {
  long long pid = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  bool read = false;
};

WorkerTiming read_timing(const std::string& path) {
  WorkerTiming timing;
  std::ifstream in(path);
  timing.read = static_cast<bool>(in >> timing.pid >> timing.begin_ns >>
                                  timing.end_ns);
  return timing;
}

/// Body of one forked worker; never returns.
[[noreturn]] void worker_main(const std::string& store_path,
                              const core::ShardedSweepOptions& base,
                              const std::string& worker_id,
                              const std::string& timing_path) {
  // The worker's interval runs from its first instruction after fork to
  // just before it reports, so the fleet's time outside every worker is
  // fork, process exit and reaping.
  WorkerTiming timing;
  timing.begin_ns = now_ns();
  int code = 0;
  try {
    // The registry was copied from the parent at fork; this worker reports
    // only its own counts.
    metrics::registry().reset();
    core::ShardedSweepOptions options = base;
    options.worker_id = worker_id;
    const core::ScenarioStore store(store_path);
    const core::ShardedSweepDriver driver(std::move(options));
    driver.run_worker(store);
    driver.write_worker_metrics();
    timing.end_ns = now_ns();
    std::ofstream out(timing_path);
    out << ::getpid() << ' ' << timing.begin_ns << ' ' << timing.end_ns << '\n';
    out.close();
    code = out ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sharded_sweep worker %s: %s\n", worker_id.c_str(),
                 error.what());
    code = 1;
  }
  ::_exit(code);
}

}  // namespace

Report run_sharded_sweep(const Config& config) {
  Report report;
  const std::uint64_t scenarios = config.tiny ? 4096 : 32768;
  const std::size_t shard_size = config.tiny ? 256 : 1024;
  const unsigned workers = workload_parallelism(config.box);
  const std::string store_path = config.work_dir + "/sharded.store";

  std::vector<double> write_ms;
  const double setup_s = median_setup_s(3, [&] {
    write_ms.push_back(
        write_light_store(store_path, config.seed, scenarios, shard_size));
  });
  const core::ScenarioStore store(store_path);
  report.input("scenarios", static_cast<double>(scenarios));
  report.input("shard_size", static_cast<double>(shard_size));
  report.input("shards", static_cast<double>(store.shard_count()));
  report.input("workers", static_cast<double>(workers));

  core::ShardedSweepOptions options;
  options.batch.parallel = false;  // processes are the parallelism
  options.batch.policy = core::FailurePolicy::kQuarantine;
  options.lease = std::chrono::seconds(60);
  options.poll = std::chrono::milliseconds(2);

  struct Fleet {
    double fleet_ms = 0.0;
    double merge_ms = 0.0;
    /// The fleet's time covered by some worker's own interval, and the
    /// part of the fork loop no worker covers.
    double worker_covered_ms = 0.0;
    double spawn_only_ms = 0.0;
    double worker_ms_max = 0.0;
    double worker_ms_min = 0.0;
    std::map<std::string, double> worker_metrics;
  };
  std::vector<Fleet> fleets;
  std::vector<std::vector<std::uint64_t>> merged;  // shard checksums per request
  std::uint64_t failed = 0;
  std::uint64_t attempted = 0;
  std::string first_error;
  double children_peak_mb = 0.0;

  Trace trace(config.trace);
  Trace untraced_trace(false);
  const auto request_on = [&](Trace& t) {
    return [&](std::uint32_t run) {
      const std::string suffix = std::to_string(run);
      const std::string ledger = config.work_dir + "/ledger-" + suffix;
      const std::string timings = config.work_dir + "/timing-" + suffix;
      std::filesystem::create_directories(timings);
      core::ShardedSweepOptions fleet_options = options;
      fleet_options.ledger_dir = ledger;
      Fleet fleet;
      std::uint64_t exited_badly = 0;
      core::MergedSweep result;
      bool merged_ok = true;
      int fleet_span = -1;
      std::int64_t fleet_start = 0;
      std::int64_t fleet_end = 0;
      std::int64_t spawn_end = 0;
      const std::int64_t start = now_ns();
      {
        t.set_run(run);
        Scope request(t, "request");
        {
          Scope span(t, "fleet");
          fleet_span = span.index();
          fleet_start = now_ns();
          std::vector<::pid_t> children;
          for (unsigned w = 0; w < workers; ++w) {
            std::string id = "w";
            id += std::to_string(w);
            const ::pid_t pid = ::fork();
            if (pid == 0) {
              worker_main(store_path, fleet_options, id, timings + "/" + id);
            }
            if (pid < 0) {
              ++exited_badly;
              continue;
            }
            children.push_back(pid);
          }
          spawn_end = now_ns();
          for (const ::pid_t pid : children) {
            int status = 0;
            rusage usage{};
            if (::wait4(pid, &status, 0, &usage) < 0 || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0) {
              ++exited_badly;
            }
            children_peak_mb = std::max(
                children_peak_mb, static_cast<double>(usage.ru_maxrss) / 1024.0);
          }
          fleet_end = now_ns();
          fleet.fleet_ms = static_cast<double>(fleet_end - fleet_start) / 1e6;
        }
        Scope span(t, "core.shard.merge");
        const std::int64_t merge_start = now_ns();
        try {
          result = core::ShardedSweepDriver(fleet_options).merge(store);
        } catch (const std::exception& error) {
          merged_ok = false;
          if (first_error.empty()) {
            first_error = error.what();
          }
        }
        fleet.merge_ms = static_cast<double>(now_ns() - merge_start) / 1e6;
      }
      const double latency_us = static_cast<double>(now_ns() - start) / 1e3;

      attempted += scenarios + workers;
      failed += exited_badly;
      if (!merged_ok) {
        failed += scenarios;
      } else {
        failed += result.report.failures.size();
      }
      merged.push_back(std::move(result.report.shard_checksums));
      fleet.worker_metrics.insert(result.worker_metrics.begin(),
                                  result.worker_metrics.end());
      fleet.worker_ms_min = 1e300;
      std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
      for (unsigned w = 0; w < workers; ++w) {
        const WorkerTiming timing =
            read_timing(timings + "/w" + std::to_string(w));
        if (!timing.read) {
          fleet.worker_ms_min = 0.0;
          continue;
        }
        const double ms =
            static_cast<double>(timing.end_ns - timing.begin_ns) / 1e6;
        fleet.worker_ms_max = std::max(fleet.worker_ms_max, ms);
        fleet.worker_ms_min = std::min(fleet.worker_ms_min, ms);
        intervals.emplace_back(timing.begin_ns, timing.end_ns);
        Span worker;
        worker.name = "core.shard.run_worker";
        worker.start_ns = timing.begin_ns;
        worker.end_ns = timing.end_ns;
        worker.run = run;
        worker.pid = static_cast<std::int32_t>(timing.pid);
        t.adopt(worker, fleet_span);
      }
      const std::int64_t worker_ns =
          covered_ns(intervals, fleet_start, fleet_end);
      intervals.emplace_back(fleet_start, spawn_end);
      fleet.worker_covered_ms = static_cast<double>(worker_ns) / 1e6;
      fleet.spawn_only_ms =
          static_cast<double>(covered_ns(intervals, fleet_start, fleet_end) -
                              worker_ns) /
          1e6;
      fleets.push_back(std::move(fleet));
      std::filesystem::remove_all(ledger);
      std::filesystem::remove_all(timings);
      return Sample{latency_us, scenarios};
    };
  };

  request_on(untraced_trace)(0);  // warm-up, see run_for
  children_peak_mb = 0.0;
  metrics::registry().reset();
  UsageMeter meter;
  std::vector<Sample> untraced;
  std::vector<Sample> traced;
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  if (!config.trace) {
    meter.start();
    untraced = run_for(config.seconds, 1, request_on(untraced_trace));
    end_to_end(report, untraced, latencies_of(untraced),
               meter.cpu_s() / static_cast<double>(untraced.size()),
               meter.peak_rss_mb(children_peak_mb), setup_s);
  } else {
    untraced = run_for(config.seconds / 3, 1, request_on(untraced_trace));
    before = registry_values();
    traced = run_for(config.seconds * 2 / 3,
                     static_cast<std::uint32_t>(1 + untraced.size()),
                     request_on(trace));
    after = registry_values();
  }

  // The oracle's reference, and the 1-process baseline the fleet's scaling
  // is judged against: one StreamingSweep over the same store with the
  // workers' evaluation options. Run after every fork, since evaluation
  // starts the shared thread pool.
  core::StreamingSweepOptions reference_options;
  reference_options.batch = options.batch;
  const std::int64_t reference_start = now_ns();
  const core::StreamingSweepReport reference =
      core::StreamingSweep(reference_options).run(store);
  const double reference_s =
      static_cast<double>(now_ns() - reference_start) / 1e9;

  if (config.trace) {
    const double requests = static_cast<double>(traced.size());
    const std::vector<Fleet> traced_fleets(fleets.end() - traced.size(),
                                           fleets.end());
    const auto median_of = [&](double Fleet::*field) {
      std::vector<double> values;
      for (const Fleet& fleet : traced_fleets) {
        values.push_back(fleet.*field);
      }
      return median(std::move(values));
    };
    const auto mean_of = [&](double Fleet::*field) {
      double total = 0.0;
      for (const Fleet& fleet : traced_fleets) {
        total += fleet.*field;
      }
      return total / requests;
    };
    // Worker counters (summed by merge() from every worker's metrics file)
    // plus the parent's own, per request.
    const auto per_request = [&](const std::string& name) {
      double total = delta(before, after, name);
      for (const Fleet& fleet : traced_fleets) {
        const auto it = fleet.worker_metrics.find(name);
        total += it == fleet.worker_metrics.end() ? 0.0 : it->second;
      }
      return total / requests;
    };

    // Attribution: ClaimLedger::try_claim timed directly on a fresh ledger,
    // and the store read layer replayed shard by shard.
    trace.set_run(static_cast<std::uint32_t>(1 + untraced.size() + traced.size()));
    std::vector<double> claim_us;
    double payload_bytes = 0.0;
    {
      Scope root(trace, "attribution");
      const core::ClaimLedger ledger(config.work_dir + "/probe-ledger",
                                     store.checksum(), std::chrono::seconds(60));
      for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
        const std::int64_t claim_start = now_ns();
        bool owned = false;
        {
          Scope span(trace, "core.shard.try_claim");
          owned = ledger.try_claim(shard, "probe", core::ClaimLedger::make_token());
        }
        claim_us.push_back(static_cast<double>(now_ns() - claim_start) / 1e3);
        if (!owned) {
          report.fail(1, "probe claim of a fresh shard was refused");
        }
      }
      for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
        Scope span(trace, "core.store.read_shard");
        const core::ScenarioBatch batch = store.read_shard(shard);
        payload_bytes += static_cast<double>(store.shard(shard).bytes);
      }
      std::filesystem::remove_all(config.work_dir + "/probe-ledger");
    }
    const double read_ms = trace.total_ms("core.store.read_shard", "attribution");
    const double shards = static_cast<double>(store.shard_count());
    const double stream_1proc = static_cast<double>(scenarios) / reference_s;
    const double fleet_plans_per_s =
        static_cast<double>(scenarios) / (median(latencies_of(traced)) / 1e6);

    report.metric("core.shard.workers", workers, "count");
    report.metric("core.shard.fleet_ms", median_of(&Fleet::fleet_ms), "ms");
    report.metric("core.shard.worker_ms_max", median_of(&Fleet::worker_ms_max),
                  "ms");
    report.metric("core.shard.worker_ms_min", median_of(&Fleet::worker_ms_min),
                  "ms");
    report.metric("core.shard.merge_ms", median_of(&Fleet::merge_ms), "ms");
    report.metric("core.shard.claim_us", median(claim_us), "us");
    report.metric("core.shard.claim_conflicts",
                  per_request(metrics::names::kDriverClaimConflicts), "count");
    report.metric("core.shard.reclaims",
                  per_request(metrics::names::kDriverLeasesReclaimed), "count");
    report.metric("core.shard.stream_1proc_plans_per_s", stream_1proc, "1/s");
    report.metric("core.shard.scaling_eff",
                  fleet_plans_per_s / (workers * stream_1proc), "ratio");
    report.metric("core.store.shards", shards, "count");
    report.metric("core.store.read_ms", read_ms, "ms");
    report.metric("core.store.bytes_read", per_request("store.bytes_read"), "B");
    report.metric("core.store.read_MBps", payload_bytes / 1e6 / (read_ms / 1e3),
                  "MB/s");
    report.metric("core.store.bytes_per_plan",
                  static_cast<double>(std::filesystem::file_size(store_path)) /
                      static_cast<double>(scenarios),
                  "B");
    report.metric("core.store.write_ms", median(write_ms), "ms");
    add_erlang_metrics(report, per_request);
    add_fs_metrics(report, per_request, shards);
    // The workers' own intervals (union, as they overlap), the fork loop
    // outside them, and merge(): process exit and reaping are left out.
    trace_health(report, trace,
                 {{"core.shard",
                   mean_of(&Fleet::worker_covered_ms) + mean_of(&Fleet::merge_ms)},
                  {"perfbench", mean_of(&Fleet::spawn_only_ms)}},
                 untraced, traced);
    write_trace(config, trace);
  }

  // Oracle: every merged sweep's shard digests equal the 1-process sweep's.
  report.attempted = attempted;
  report.fail(failed, "failed workers, quarantined cells, or failed merges " +
                          first_error);
  if (!reference.complete()) {
    report.fail(scenarios, "the 1-process reference sweep did not complete");
  }
  for (std::size_t r = 0; r < merged.size(); ++r) {
    if (merged[r] != reference.shard_checksums) {
      report.fail(scenarios, "merged sweep " + std::to_string(r) +
                                 " differs from the 1-process sweep");
    }
  }
  return report;
}

}  // namespace perfbench
