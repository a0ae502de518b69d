// The machine a result was measured on, resource probes for the measured
// phase, and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Box {
  unsigned nproc = 1;        ///< CPUs in this process's affinity mask
  double cpu_quota = 0.0;    ///< cgroup CPU quota in cores; 0 = unlimited
  unsigned cores = 1;        ///< usable cores: nproc capped by the quota
  std::string cpu_model;
  std::size_t simd_lanes = 0;  ///< util::simd native double lanes
  std::string compiler;
  std::string build_type;
};

Box probe_box();

/// Threads or worker processes a workload uses: min(4, nproc).
unsigned workload_parallelism(const Box& box);

/// CPU time and resident-memory high-water of a measured phase. start()
/// resets the kernel's VmHWM so the peak covers the phase only.
class UsageMeter {
 public:
  void start();
  /// User+sys seconds of this process and its waited-for children since
  /// start().
  double cpu_s() const;
  /// Peak RSS of this process since start(), or of `children_peak_mb` if a
  /// child process peaked higher.
  double peak_rss_mb(double children_peak_mb = 0.0) const;

 private:
  double cpu_start_s_ = 0.0;
  double start_rss_mb_ = 0.0;
};

double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run produced: every metric, the oracle verdict, and the inputs
/// that produced it.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Sizes and settings of the inputs, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> inputs;
  std::vector<std::string> errors;  ///< first few oracle failures, for humans

  void metric(const std::string& name, double value, const std::string& unit);
  void input(const std::string& key, double value);
  /// Counts `operations` failed operations; `why` explains the first few.
  void fail(std::uint64_t operations, const std::string& why);
  const Metric* find(const std::string& name) const;
};

std::string json_string(const std::string& text);

}  // namespace perfbench
