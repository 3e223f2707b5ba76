// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around each public call it makes into
// the library (datasets, nn, core, cache, baselines, serve); the library
// itself carries no clock. Each span has a name, start, end, a parent and a
// group id shared by every span of one cell or load point. Spans are kept in
// memory and written at exit as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open directly.
//
// With tracing off every Scope is inert: it reads no clock and records
// nothing, so the untraced run measures the program alone.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;   ///< layer call, e.g. "core.run"; roots are setup/pass/check
    std::string key;    ///< qualifier such as the dataset ("RD"); may be empty
    std::string group;  ///< id shared by the spans of one cell or load point
    double start = 0.0; ///< seconds since the tracer was created
    double end = 0.0;
    std::size_t parent = kNone;
    std::size_t root = kNone;  ///< the setup rep or pass this span belongs to
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Switches recording on or off; call only while no span is open.
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span whose parent is the innermost span still open. Spans are
  /// opened on the main thread only: work the benchmark fans out to worker
  /// threads is covered by one span around the whole fan-out.
  std::size_t open(std::string name, std::string key, std::string group) {
    Span s;
    s.start = now();
    s.name = std::move(name);
    s.key = std::move(key);
    if (!stack_.empty()) {
      s.parent = stack_.back();
      s.root = spans_[s.parent].root;
      if (group.empty()) group = spans_[s.parent].group;
    } else {
      s.root = spans_.size();
    }
    s.group = std::move(group);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].end = now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the durations of its children.
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end - spans_[i].start;
      if (spans_[i].parent != kNone) self[spans_[i].parent] -= spans_[i].end - spans_[i].start;
    }
    return self;
  }

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"name\":",
                    i == 0 ? "" : ",", s.start * 1e6, (s.end - s.start) * 1e6);
      out += buf;
      out += quoted(s.key.empty() ? s.name : s.name + " " + s.key);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"id\":%zu,\"parent\":%lld,\"group\":", i,
                    s.parent == kNone ? -1LL : static_cast<long long>(s.parent));
      out += buf;
      out += quoted(s.group);
      out += "}}";
    }
    out += "]}\n";
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  static std::string quoted(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return q + "\"";
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< open spans, innermost last
};

/// RAII span; inert when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string key = {}, std::string group = {})
      : tracer_(tracer) {
    if (tracer_.enabled()) id_ = tracer_.open(std::move(name), std::move(key), std::move(group));
  }
  ~Scope() {
    if (id_ != Tracer::kNone) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::size_t id_ = Tracer::kNone;
};

}  // namespace perfbench
