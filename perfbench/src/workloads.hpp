// The benchmark's four workloads. Each one generates its inputs from the
// seed, sets up (several times, reporting the median), runs requests for
// the configured number of seconds, verifies every output it can against an
// independent path, and fills a Report: end-to-end metrics when tracing is
// off, per-layer metrics from a traced run when it is on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "box.hpp"
#include "core/model.hpp"
#include "trace.hpp"

namespace perfbench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs: every workload at a size that runs in well under a
  /// second, still exercising every layer and oracle.
  bool tiny = false;
  /// Directory for stores, checkpoints and ledgers; the caller removes it.
  std::string work_dir;
  /// Chrome trace output path for traced runs ("" = do not write).
  std::string trace_path;
  Box box;
};

Report run_whatif_batch(const Config& config);
Report run_stream_sweep(const Config& config);
Report run_sharded_sweep(const Config& config);
Report run_plan_ini(const Config& config);

// --- shared by the workload files ----------------------------------------

/// Times `setup` `repeats` times and returns the median, in seconds.
double median_setup_s(int repeats, const std::function<void()>& setup);

/// The metrics registry as name -> value (timers as .ms / .calls rows).
std::map<std::string, double> registry_values();

/// after[name] - before[name] (missing rows read as 0).
double delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after,
             const std::string& name);

/// One request's measured latency, in microseconds, plus how many plans it
/// answered.
struct Sample {
  double latency_us = 0.0;
  std::uint64_t plans = 0;
};

/// Runs `request(run_id)` until `seconds` elapse (at least once) and
/// returns the samples, in order. Callers issue one untimed warm-up request
/// first: it pays one-time lazy costs (page faults on fresh memory,
/// per-thread allocator arenas) that would otherwise decide every run's tail.
std::vector<Sample> run_for(double seconds, std::uint32_t first_run,
                            const std::function<Sample(std::uint32_t)>& request);

/// The samples' latencies, in order.
std::vector<double> latencies_of(const std::vector<Sample>& samples);

/// Fills the end-to-end metrics shared by every workload. `latencies_us`
/// are the per-request latencies the p50/p99 are taken over.
void end_to_end(Report& report, const std::vector<Sample>& samples,
                const std::vector<double>& latencies_us, double cpu_s_per_request,
                double peak_rss_mb, double setup_s);

/// Where a traced request's time went: milliseconds per request by layer,
/// each measured on its own (a span around one public call, a replay of
/// the calls a library function composes, or the library's own timer) and
/// never derived as a whole minus its other parts.
using Split = std::map<std::string, double>;

/// Fills `<layer>.self_ms` from `split` and the trace-health metrics:
/// trace.coverage is the split's sum over the traced requests' mean length,
/// trace.overhead_pct the median request time traced vs untraced. A
/// coverage outside [0.9, 1.1] fails the run: part of a request went
/// unmeasured, or a part was counted twice.
void trace_health(Report& report, const Trace& trace, const Split& split,
                  const std::vector<Sample>& untraced,
                  const std::vector<Sample>& traced);

/// Writes the trace to config.trace_path, if set.
void write_trace(const Config& config, const Trace& trace);

/// Writes `scenarios` light scenarios (gen.hpp) to a store at `path`;
/// returns the milliseconds spent in the store writer itself (append and
/// finish), input generation excluded.
double write_light_store(const std::string& path, std::uint64_t seed,
                         std::uint64_t scenarios, std::size_t shard_size);

/// Digest of one result over every numeric field (checksum_model_results),
/// so two results compare bit for bit.
std::uint64_t digest_one(const vmcons::core::ModelResult& result);

/// Per-request registry delta, by registry name.
using PerRequest = std::function<double(const std::string&)>;

/// queueing.erlang.* rows from the kernel's registry counters.
void add_erlang_metrics(Report& report, const PerRequest& per_request);

/// util.fs.* rows from the fs layer's registry counters; `shards` is the
/// base of fsyncs_per_shard.
void add_fs_metrics(Report& report, const PerRequest& per_request,
                    double shards);

/// Seeded sample of `count` distinct indices in [0, population), sorted.
std::vector<std::size_t> sample_indices(std::uint64_t seed,
                                        std::size_t population,
                                        std::size_t count);

}  // namespace perfbench
