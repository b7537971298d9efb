#pragma once

// In-memory span recorder for the benchmark's traced mode. Spans wrap the
// benchmark's own calls into each simulator layer (the program itself is
// not instrumented); they are kept in memory and written once the run ends.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace simbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;       ///< src/ module + call, e.g. "harness.run"
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;    ///< index of the enclosing span; -1 = top level
  std::int64_t request;   ///< serving request id; -1 = none
};

/// Aggregate of every span sharing a name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void setEnabled(bool on) { enabled_ = on; }

  /// Run `f` inside a span named `name` (a plain call when disabled).
  template <typename F>
  decltype(auto) span(const char* name, F&& f, std::int64_t request = -1) {
    if (!enabled_) return f();
    const Close close{*this, open(name, request)};
    return f();
  }

  std::map<std::string, SpanTotals> totals() const {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_s[s.parent] += seconds(s);
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += seconds(spans_[i]);
      t.self_s += seconds(spans_[i]) - child_s[i];
    }
    return out;
  }

  /// Append every span to `f` as one JSON object per line, tagged with
  /// `phase` (parent indices are local to this tracer). False on I/O error.
  bool write(std::FILE* f, const char* phase) const {
    for (const Span& s : spans_) {
      if (std::fprintf(f,
                       "{\"phase\": \"%s\", \"name\": \"%s\", \"start_ns\": "
                       "%lld, \"end_ns\": %lld, \"parent\": %d, "
                       "\"request\": %lld}\n",
                       phase, s.name, static_cast<long long>(s.start_ns),
                       static_cast<long long>(s.end_ns), s.parent,
                       static_cast<long long>(s.request)) < 0) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Close {
    Tracer& tracer;
    std::int32_t index;
    ~Close() { tracer.close(index); }
  };

  static double seconds(const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }

  std::int32_t open(const char* name, std::int64_t request) {
    const auto index = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, nowNs(), 0, current_, request});
    current_ = index;
    return index;
  }

  void close(std::int32_t index) {
    spans_[index].end_ns = nowNs();
    current_ = spans_[index].parent;
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

}  // namespace simbench
