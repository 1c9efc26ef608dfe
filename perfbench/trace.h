// In-memory span recorder and sample statistics for perfbench.
//
// Spans are taken by the benchmark's own code around calls into each
// layer's public functions (never inside the library), kept in memory while
// the workload runs, and written out once at the end as JSON lines:
//   {"id":7,"name":"query.update_batch","start":...,"end":...,
//    "parent":3,"trace_id":2}
// `start`/`end` are steady-clock nanoseconds; `parent` is the id of the
// enclosing span (null for a root) and `trace_id` groups the spans of one
// repetition of the workload script.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  uint64_t id = 0;
  const char* name = "";
  uint64_t start = 0;
  uint64_t end = 0;
  int64_t parent = -1;  // -1: root
  uint64_t trace_id = 0;
};

/// Single-threaded span recorder. Disabled, every call is a branch. Leaf
/// spans past kMaxSpans are dropped, which bounds trace memory.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 2'000'000;

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span that later Record/Open calls nest under.
  void Open(const char* name, uint64_t trace_id) {
    if (!enabled_) return;
    Span span;
    span.id = spans_.size();
    span.name = name;
    span.start = NowNs();
    span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    span.trace_id = trace_id;
    open_.push_back(span.id);
    spans_.push_back(span);
  }

  void Close() {
    if (!enabled_ || open_.empty()) return;
    spans_[open_.back()].end = NowNs();
    open_.pop_back();
  }

  /// Records a finished leaf span under the innermost open span.
  void Record(const char* name, uint64_t start, uint64_t end) {
    if (!enabled_ || spans_.size() >= kMaxSpans) return;
    Span span;
    span.id = spans_.size();
    span.name = name;
    span.start = start;
    span.end = end;
    if (!open_.empty()) {
      span.parent = static_cast<int64_t>(open_.back());
      span.trace_id = spans_[open_.back()].trace_id;
    }
    spans_.push_back(span);
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& span : spans_) {
      out << "{\"id\":" << span.id << ",\"name\":\"" << span.name
          << "\",\"start\":" << span.start << ",\"end\":" << span.end
          << ",\"parent\":";
      if (span.parent < 0) {
        out << "null";
      } else {
        out << span.parent;
      }
      out << ",\"trace_id\":" << span.trace_id << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

/// Log-linear latency histogram in nanoseconds: exact below 256 ns, then
/// 256 sub-buckets per power of two (0.4% resolution), so any number of
/// per-call latencies fits in a fixed 57 KB. Quantiles interpolate by rank
/// inside the bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Index(ns)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Value (ns) of the sample at 0-based `rank` in sorted order.
  double AtRank(uint64_t rank) const {
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      if (rank < seen + counts_[i]) {
        double low = 0.0;
        double width = 0.0;
        Bounds(i, &low, &width);
        return low + width * (static_cast<double>(rank - seen) + 0.5) /
                         static_cast<double>(counts_[i]);
      }
      seen += counts_[i];
    }
    return 0.0;
  }

  double Median() const {
    return count_ == 0 ? 0.0 : AtRank((count_ - 1) / 2);
  }

  /// The highest percentile with at least ten samples beyond it (the
  /// sample with exactly ten larger ones); the maximum, reported as
  /// percentile 100, when there are fewer than eleven samples.
  double Tail(double* percentile) const {
    if (count_ == 0) {
      *percentile = 0.0;
      return 0.0;
    }
    const uint64_t rank = count_ >= 11 ? count_ - 11 : count_ - 1;
    *percentile = 100.0 * static_cast<double>(rank + 1) /
                  static_cast<double>(count_);
    return AtRank(rank);
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub * (64 - kSubBits + 1);

  static size_t Index(uint64_t ns) {
    if (ns < kSub) return static_cast<size_t>(ns);
    const int exponent = 63 - __builtin_clzll(ns);  // >= kSubBits
    const int shift = exponent - kSubBits;
    const uint64_t mantissa = ns >> shift;  // in [kSub, 2 kSub)
    return static_cast<size_t>(kSub * static_cast<uint64_t>(shift + 1) +
                               (mantissa - kSub));
  }

  static void Bounds(size_t index, double* low, double* width) {
    if (index < kSub) {
      *low = static_cast<double>(index);
      *width = 1.0;
      return;
    }
    const uint64_t shift = index / kSub - 1;
    const uint64_t mantissa = kSub + index % kSub;
    *low = static_cast<double>(mantissa << shift);
    *width = static_cast<double>(uint64_t{1} << shift);
  }

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

/// A growable sample set with order statistics.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  const std::vector<double>& values() const { return values_; }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank median; 0 when empty.
  double Median() const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }

  double Mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (const double value : values_) sum += value;
    return sum / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
