// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call it makes
// into a library layer; nothing inside the library is instrumented. A span
// named "<layer>.<operation>" belongs to <layer> (e.g. "core.store.read_shard"
// to core.store). Root spans named "request" bracket one request of the
// workload; every span of a request carries that request's run id. Spans
// stay in memory until the run ends, then are written as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";    ///< a string literal
  std::int64_t start_ns = 0;  ///< steady_clock, comparable across processes
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index into Trace::spans(), -1 for a root
  std::uint32_t run = 0;      ///< id of the request the span belongs to
  std::int32_t pid = 0;       ///< process that recorded the span
};

/// steady_clock now, in nanoseconds.
std::int64_t now_ns();

class Trace {
 public:
  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }

  /// Sets the run id stamped on spans opened from now on; open a root
  /// "request" span right after it.
  void set_run(std::uint32_t run) { run_ = run; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when tracing is off. `name` must outlive the trace (a literal).
  int open(const char* name);
  /// Closes span `index` (must be the innermost open span).
  void close(int index);

  /// Adds a span recorded elsewhere (another process) under span `parent`,
  /// or as a root when `parent` is -1.
  void adopt(const Span& span, int parent);

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans named `name` under roots named `root`
  /// (the root itself counts when `name` == `root`).
  double total_ms(const char* name, const char* root) const;

  /// Durations in microseconds of the spans named `name`, in record order.
  std::vector<double> durations_us(const char* name) const;

  /// Chrome trace-event JSON; at most `max_events` spans are written (the
  /// rest are counted in otherData.dropped_events).
  void write_chrome_json(std::ostream& out, std::size_t max_events) const;

 private:
  bool enabled_;
  /// Index of each span's root ancestor.
  std::vector<int> roots() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint32_t run_ = 0;
  std::int32_t pid_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(Trace& trace, const char* name)
      : trace_(trace), index_(trace.open(name)) {}
  ~Scope() { trace_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Trace& trace_;
  int index_;
};

/// Length of the union of the [start, end) intervals, clipped to [lo, hi):
/// the time some interval covers, counted once where they overlap (worker
/// processes run in parallel).
std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi);

/// The layer a span name belongs to ("" for "request" and other non-layer
/// names).
std::string layer_of(const char* name);

}  // namespace perfbench
