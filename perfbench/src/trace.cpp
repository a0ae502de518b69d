#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include <unistd.h>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string layer_of(const char* name) {
  const char* dot = std::strrchr(name, '.');
  return dot == nullptr ? std::string() : std::string(name, dot);
}

Trace::Trace(bool enabled)
    : enabled_(enabled), pid_(static_cast<std::int32_t>(::getpid())) {
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

int Trace::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.pid = pid_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Trace::close(int index) {
  if (index < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void Trace::adopt(const Span& span, int parent) {
  if (!enabled_) {
    return;
  }
  Span copy = span;
  copy.parent = parent;
  spans_.push_back(copy);
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [start, end] : intervals) {
    const std::int64_t from = std::max(start, reach);
    const std::int64_t to = std::min(end, hi);
    if (to > from) {
      covered += to - from;
      reach = to;
    }
  }
  return covered;
}

std::vector<int> Trace::roots() const {
  std::vector<int> root(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    // Parents always precede their children, so the parent's root is known.
    root[i] = parent < 0 ? static_cast<int>(i)
                         : root[static_cast<std::size_t>(parent)];
  }
  return root;
}

double Trace::total_ms(const char* name, const char* root) const {
  const std::vector<int> root_of = roots();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (std::strcmp(span.name, name) == 0 &&
        std::strcmp(spans_[static_cast<std::size_t>(root_of[i])].name, root) ==
            0) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

std::vector<double> Trace::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  return out;
}

void Trace::write_chrome_json(std::ostream& out, std::size_t max_events) const {
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start_ns);
  }
  const std::size_t written = std::min(max_events, spans_.size());
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < written; ++i) {
    const Span& span = spans_[i];
    const std::string layer = layer_of(span.name);
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << span.name
        << "\", \"cat\": \"" << (layer.empty() ? "bench" : layer)
        << "\", \"ph\": \"X\", \"ts\": "
        << static_cast<double>(span.start_ns - origin) / 1e3
        << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"pid\": " << span.pid << ", \"tid\": " << span.pid
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << ", \"run\": " << span.run << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": {\"spans\": "
      << spans_.size() << ", \"dropped_events\": " << spans_.size() - written
      << "}}\n";
}

}  // namespace perfbench
