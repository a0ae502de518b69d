#include "box.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

#include "util/simd.hpp"

namespace perfbench {
namespace {

double read_number(const std::string& path, double fallback) {
  std::ifstream in(path);
  double value = fallback;
  if (!(in >> value)) {
    return fallback;
  }
  return value;
}

/// cgroup CPU quota in cores (v2 cpu.max, else v1 cfs files); 0 = none.
double cgroup_quota() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0.0;
  if (v2 >> quota >> period) {
    return quota == "max" || period <= 0.0 ? 0.0 : std::stod(quota) / period;
  }
  const double v1_quota = read_number("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", -1);
  const double v1_period =
      read_number("/sys/fs/cgroup/cpu/cpu.cfs_period_us", 0);
  return v1_quota > 0.0 && v1_period > 0.0 ? v1_quota / v1_period : 0.0;
}

double rusage_cpu_s(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// A "Vm*:" line of /proc/self/status, in MB.
double status_mb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

Box probe_box() {
  Box box;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    box.nproc = std::max(1, CPU_COUNT(&set));
  }
  box.cpu_quota = cgroup_quota();
  box.cores = box.nproc;
  if (box.cpu_quota > 0.0) {
    box.cores = std::min<unsigned>(
        box.nproc, std::max(1u, static_cast<unsigned>(std::ceil(box.cpu_quota))));
  }
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      box.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  box.simd_lanes = vmcons::util::simd::kNativeDoubleLanes;
  box.compiler = __VERSION__;
#ifdef PERFBENCH_BUILD_TYPE
  box.build_type = PERFBENCH_BUILD_TYPE;
#endif
  return box;
}

unsigned workload_parallelism(const Box& box) {
  return std::min(4u, box.nproc);
}

void UsageMeter::start() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
  start_rss_mb_ = status_mb("VmRSS:");
  cpu_start_s_ = rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN);
}

double UsageMeter::cpu_s() const {
  return rusage_cpu_s(RUSAGE_SELF) + rusage_cpu_s(RUSAGE_CHILDREN) -
         cpu_start_s_;
}

double UsageMeter::peak_rss_mb(double children_peak_mb) const {
  // Without a reset VmHWM is the lifetime peak, set-up included; still an
  // upper bound, never an understatement.
  const double self = std::max(status_mb("VmHWM:"), start_rss_mb_);
  return std::max(self, children_peak_mb);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Report::input(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  inputs.emplace_back(key, out.str());
}

void Report::fail(std::uint64_t operations, const std::string& why) {
  if (operations == 0) {
    return;
  }
  failed += operations;
  correct = false;
  if (errors.size() < 8) {
    errors.push_back(why);
  }
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
