// stream_sweep: a ~10^6-scenario store of light scenarios swept by one
// process, one thread, through StreamingSweep with checkpointing on.
//
// Why: the scenarios carry tens of Erlangs, so the Erlang walk is
// negligible and store read, checksum, decode and revalidation, plus the
// checkpoint manifest, dominate. It is the read-only, bounded-memory use of
// core.store.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "gen.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/csv.hpp"
#include "util/file_lock.hpp"
#include "util/fs.hpp"
#include "util/metrics.hpp"
#include "util/run_control.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vmcons;

namespace {

void check(const util::fs::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.message());
  }
}

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// The checkpoint work run() does for one request, replayed through the
/// same public calls on a copy of the manifest: take the manifest's pid
/// lock, read the manifest so far, open it for appending, and commit one
/// fsynced shard row per shard (refreshing the lock after each).
void replay_checkpoint(const std::string& manifest,
                       const core::ScenarioStore& store,
                       std::span<const std::size_t> shards,
                       const std::vector<std::uint64_t>& result_checksums) {
  const util::PidLockFile lock(manifest + ".lock", "replayed manifest");
  {
    util::fs::File file;
    check(util::fs::open_read(manifest, util::fs::sites::kManifestOpen, file),
          "open " + manifest);
    std::string text(std::filesystem::file_size(manifest), '\0');
    check(util::fs::pread_all(file, text.data(), text.size(), 0,
                              util::fs::sites::kManifestOpen),
          "read " + manifest);
  }
  util::fs::File file;
  check(util::fs::open_append(manifest, util::fs::sites::kManifestOpen, file),
        "append to " + manifest);
  CsvWriter writer(file, util::fs::sites::kManifestAppend);
  writer.continue_rows(9);  // the manifest's columns, as in the rows below
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const core::ShardInfo& info = store.shard(shards[i]);
    writer.row({std::string("shard"), static_cast<long long>(shards[i]),
                static_cast<long long>(info.scenario_begin),
                static_cast<long long>(info.scenarios), hex(store.checksum()),
                hex(result_checksums[i]), 0LL, 0LL, std::string()});
    writer.commit();
    lock.refresh();
  }
  check(file.close(), "close " + manifest);
}

}  // namespace

Report run_stream_sweep(const Config& config) {
  Report report;
  const std::uint64_t scenarios = config.tiny ? 3000 : 1000000;
  const std::size_t shard_size = config.tiny ? 256 : 4096;
  // A full pass over 10^6 light scenarios takes longer than a run measures,
  // so each request sweeps the next slice of shards and stops; the next
  // request resumes from the checkpoint manifest, and a finished pass starts
  // over.
  const std::size_t shards_per_request = config.tiny ? 3 : 4;
  const std::string store_path = config.work_dir + "/stream.store";

  std::vector<double> write_ms;
  const double setup_s = median_setup_s(3, [&] {
    write_ms.push_back(
        write_light_store(store_path, config.seed, scenarios, shard_size));
  });
  const core::ScenarioStore store(store_path);
  report.input("scenarios", static_cast<double>(scenarios));
  report.input("shard_size", static_cast<double>(shard_size));
  report.input("shards", static_cast<double>(store.shard_count()));
  report.input("shards_per_request", static_cast<double>(shards_per_request));
  report.input("store_bytes",
               static_cast<double>(std::filesystem::file_size(store_path)));

  core::StreamingSweepOptions options;
  options.batch.parallel = false;
  options.batch.policy = core::FailurePolicy::kQuarantine;
  // Pinned to what BatchEvaluator picks on a 4-core box, so the replay below
  // walks exactly the ranges run() walks, on any box.
  options.batch.shard_size = config.tiny ? 64 : 256;
  options.checkpoint_path = config.work_dir + "/stream.manifest";

  // Oracle state: each shard's first result digest, one seeded cell per
  // delivered shard, and the shards each request delivered, in order.
  std::map<std::size_t, std::uint64_t> shard_digest;
  std::map<std::size_t, core::ModelResult> sampled;
  std::vector<std::size_t> delivered_shards;
  std::vector<std::size_t> shards_per_request_done;
  // Time spent inside the benchmark's own sink, which run() calls.
  std::int64_t sink_ns = 0;
  std::vector<double> shard_latencies_us;
  std::uint64_t failed_cells = 0;
  std::uint64_t mismatched_shards = 0;
  std::uint64_t evaluated = 0;
  bool fresh_pass = true;

  Trace trace(config.trace);
  Trace untraced_trace(false);
  const auto request_on = [&](Trace& t) {
    return [&](std::uint32_t run) {
      core::StreamingSweepOptions slice = options;
      slice.resume = !fresh_pass;
      slice.batch.control = RunControl{};
      const CancelToken token = slice.batch.control.token;
      std::size_t delivered = 0;
      std::uint64_t plans = 0;
      const std::int64_t start = now_ns();
      std::int64_t last = start;
      const auto sink = [&](core::ShardOutcome&& shard) {
        const std::int64_t now = now_ns();
        struct SinkTimer {
          std::int64_t start;
          std::int64_t& total;
          ~SinkTimer() { total += now_ns() - start; }
        } sink_timer{now, sink_ns};
        shard_latencies_us.push_back(static_cast<double>(now - last) / 1e3);
        last = now;
        const core::BatchOutcome& outcome = shard.outcome;
        plans += outcome.results.size();
        failed_cells += outcome.results.size() - outcome.evaluated_count();
        const auto [it, first] =
            shard_digest.emplace(shard.shard_index, shard.result_checksum);
        mismatched_shards += it->second != shard.result_checksum;
        if (first) {
          const std::size_t cell = static_cast<std::size_t>(
              Rng::stream(config.seed, 7, shard.shard_index)
                  .between(0, outcome.results.size() - 1));
          sampled.emplace(shard.scenario_begin + cell, outcome.results[cell]);
        }
        delivered_shards.push_back(shard.shard_index);
        if (++delivered == shards_per_request) {
          token.cancel();  // stop cleanly before the next shard
        }
      };
      core::StreamingSweepReport swept;
      {
        t.set_run(run);
        Scope request(t, "request");
        Scope span(t, "core.stream.run");
        swept = core::StreamingSweep(slice).run(store, sink);
      }
      const double latency_us = static_cast<double>(now_ns() - start) / 1e3;
      fresh_pass = swept.shards_resumed + swept.shards_completed ==
                   swept.shards_total;
      evaluated += plans;
      shards_per_request_done.push_back(delivered);
      return Sample{latency_us, plans};
    };
  };

  request_on(untraced_trace)(0);  // warm-up, see run_for
  shard_latencies_us.clear();
  metrics::registry().reset();
  UsageMeter meter;
  if (!config.trace) {
    meter.start();
    const std::vector<Sample> samples =
        run_for(config.seconds, 1, request_on(untraced_trace));
    end_to_end(report, samples, shard_latencies_us,
               meter.cpu_s() / static_cast<double>(samples.size()),
               meter.peak_rss_mb(), setup_s);
  } else {
    const std::vector<Sample> untraced =
        run_for(config.seconds / 3, 1, request_on(untraced_trace));
    const std::size_t first_traced_shard = delivered_shards.size();
    sink_ns = 0;
    const auto before = registry_values();
    const std::vector<Sample> traced = run_for(
        config.seconds * 2 / 3, static_cast<std::uint32_t>(1 + untraced.size()),
        request_on(trace));
    const auto after = registry_values();
    const double requests = static_cast<double>(traced.size());
    const auto per_request = [&](const std::string& name) {
      return delta(before, after, name) / requests;
    };
    const double run_ms = trace.total_ms("core.stream.run", "request") / requests;
    // Evaluation time inside run(), as the library's own batch.wall timer
    // measured it.
    const double eval_ms = per_request("batch.wall.ms");
    const double sink_ms = static_cast<double>(sink_ns) / 1e6 / requests;

    // Attribution: the calls run() composes for each shard the traced
    // requests swept, replayed through the public API and timed one by one.
    trace.set_run(static_cast<std::uint32_t>(1 + untraced.size() + traced.size()));
    double payload_bytes = 0.0;
    {
      Scope root(trace, "attribution");
      // run() evaluates through BatchEvaluator's default memoized path: the
      // shared kernel, the span kernels over shard_size ranges, one publish
      // per store shard. The replay makes the same calls, one span per stage.
      queueing::ErlangKernel& kernel = queueing::ErlangKernel::shared();
      const std::size_t range = options.batch.shard_size;
      for (std::size_t i = first_traced_shard; i < delivered_shards.size(); ++i) {
        const std::size_t shard = delivered_shards[i];
        payload_bytes += static_cast<double>(store.shard(shard).bytes);
        core::ScenarioBatch batch;
        {
          Scope span(trace, "core.store.read_shard");
          batch = store.read_shard(shard);
        }
        const std::size_t n = batch.size();
        std::vector<core::ModelResult> results(n);
        for (std::size_t first = 0; first < n; first += range) {
          const std::size_t last = std::min(n, first + range);
          const std::span<core::ModelResult> out(results.data() + first,
                                                 last - first);
          {
            Scope span(trace, "core.batch.staff_dedicated");
            core::batch_kernels::staff_dedicated(batch, first, last, &kernel,
                                                 out);
          }
          {
            Scope span(trace, "core.batch.staff_consolidated");
            core::batch_kernels::staff_consolidated(batch, first, last, &kernel,
                                                    out);
          }
          Scope span(trace, "core.batch.derive");
          core::batch_kernels::staff_fleet(batch, first, last, out);
          core::batch_kernels::derive_utility(batch, first, last, out);
          core::batch_kernels::derive_power(batch, first, last, out);
        }
        {
          Scope span(trace, "queueing.publish");
          kernel.publish();
        }
        const std::vector<std::uint8_t> evaluated(n, 1);
        std::uint64_t checksum = 0;
        {
          Scope span(trace, "core.stream.checksum");
          checksum = core::checksum_model_results(results, evaluated);
        }
        mismatched_shards += checksum != shard_digest.at(shard);
      }
      const std::string manifest = config.work_dir + "/replay.manifest";
      std::filesystem::copy_file(
          options.checkpoint_path, manifest,
          std::filesystem::copy_options::overwrite_existing);
      std::size_t next = first_traced_shard;
      for (std::size_t r = shards_per_request_done.size() - traced.size();
           r < shards_per_request_done.size(); ++r) {
        const std::span<const std::size_t> shards(
            delivered_shards.data() + next, shards_per_request_done[r]);
        next += shards.size();
        std::vector<std::uint64_t> checksums;
        for (const std::size_t shard : shards) {
          checksums.push_back(shard_digest.at(shard));
        }
        Scope span(trace, "core.stream.checkpoint");
        replay_checkpoint(manifest, store, shards, checksums);
      }
    }
    const auto attributed = [&](const char* name) {
      return trace.total_ms(name, "attribution") / requests;
    };
    report.metric("core.batch.staff_dedicated_ms",
                  attributed("core.batch.staff_dedicated"), "ms");
    report.metric("core.batch.staff_consolidated_ms",
                  attributed("core.batch.staff_consolidated"), "ms");
    report.metric("core.batch.derive_ms", attributed("core.batch.derive"), "ms");
    report.metric("core.batch.lock_wait_ms", per_request("batch.lock_wait.ms"),
                  "ms");
    const double read_ms = attributed("core.store.read_shard");
    const double digest_ms = attributed("core.stream.checksum");
    const double checkpoint_ms = attributed("core.stream.checkpoint");
    const double shards =
        static_cast<double>(delivered_shards.size() - first_traced_shard) /
        requests;
    report.metric("core.store.shards", shards, "count");
    report.metric("core.store.read_ms", read_ms, "ms");
    report.metric("core.store.bytes_read", per_request("store.bytes_read"), "B");
    report.metric("core.store.read_MBps",
                  payload_bytes / requests / 1e6 / (read_ms / 1e3), "MB/s");
    report.metric("core.store.bytes_per_plan",
                  static_cast<double>(std::filesystem::file_size(store_path)) /
                      static_cast<double>(scenarios),
                  "B");
    report.metric("core.store.write_ms", median(write_ms), "ms");
    report.metric("core.stream.eval_ms", eval_ms, "ms");
    report.metric("core.stream.digest_ms", digest_ms, "ms");
    report.metric("core.stream.checkpoint_ms", checkpoint_ms, "ms");
    // run() minus the calls it composes (and the sink it calls): the
    // manifest, the lock and the loop. Derived, so it is checked, not
    // trusted: below zero means the parts were over-counted.
    const double driver_self_ms =
        run_ms - read_ms - eval_ms - digest_ms - sink_ms;
    if (!(driver_self_ms >= 0.0)) {
      report.fail(1, "core.stream.driver_self_ms is " +
                         std::to_string(driver_self_ms) +
                         ": read, eval, digest and sink exceed run()");
    }
    report.metric("core.stream.driver_self_ms", driver_self_ms, "ms");
    add_erlang_metrics(report, per_request);
    add_fs_metrics(report, per_request, shards);
    // Every part measured on its own; the checkpoint replay stands in for
    // driver_self_ms, so coverage compares it with what run() really spent.
    trace_health(report, trace,
                 {{"core.store", read_ms},
                  {"core.batch", eval_ms},
                  {"core.stream", digest_ms + checkpoint_ms},
                  {"perfbench", sink_ms}},
                 untraced, traced);
    write_trace(config, trace);
  }

  // Oracle: no cell was quarantined, a shard swept twice gave the same
  // digest both times (and in the replay), and one seeded cell per shard
  // equals a scalar solve() of the regenerated inputs bit for bit.
  report.attempted = evaluated;
  report.fail(failed_cells, "quarantined or unevaluated cells");
  report.fail(mismatched_shards * shard_size,
              "a shard's results changed between sweeps");
  for (const auto& [index, result] : sampled) {
    const core::ModelResult scalar =
        core::UtilityAnalyticModel(light_scenario(config.seed, index)).solve();
    if (digest_one(scalar) != digest_one(result)) {
      report.fail(1, "scenario " + std::to_string(index) +
                         " differs from the scalar solve()");
    }
  }
  return report;
}

}  // namespace perfbench
