#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement primitives shared by the untraced run, the traced replay
// and the self-tests: percentiles under the sample-count rule, in-memory
// spans with self time, an answers digest and the result line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty set.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()) - 1e-9);
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50);
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline size_t SamplesBeyond(size_t n, double p) {
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// The highest reportable percentile of `n` samples: the largest of
/// 99.9 / 99 / 95 / 90 / 50 that still has at least ten samples beyond it
/// (so a p99 needs >= 1000 samples). 0 when not even the median qualifies.
inline double HighestReportablePercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

inline bool P99Reportable(size_t n) {
  return HighestReportablePercentile(n) >= 99.0;
}

/// One timed interval of the traced run. `parent` indexes the span that
/// caused it (-1 = a root); spans of one replayed request share `request`.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  uint64_t request = 0;
  double DurationMs() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
inline std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = spans[i].start_ns;
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, spans[i].end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns - covered) / 1e6;
  }
  return self;
}

/// Single-threaded span recorder: spans nest by call order and stay in
/// memory until the run writes them out.
class SpanRecorder {
 public:
  void SetRequest(uint64_t request) { request_ = request; }

  int Begin(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void End(int index) {
    spans_[static_cast<size_t>(index)].end_ns = Now();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint64_t request_ = 0;
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name)
      : recorder_(recorder), index_(recorder->Begin(std::move(name))) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    if (index_ >= 0) recorder_->End(index_);
    index_ = -1;
  }

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// FNV-1a 64 over a sequence of byte strings (length-prefixed so
/// concatenation boundaries matter).
class Digest {
 public:
  void Add(std::string_view bytes) {
    uint64_t length = bytes.size();
    Mix(std::string_view(reinterpret_cast<const char*>(&length), sizeof(length)));
    Mix(bytes);
  }
  uint64_t value() const { return hash_; }
  std::string Hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  void Mix(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last stdout line.
inline std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                              const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
