#ifndef CQAC_PERFBENCH_SPANS_H_
#define CQAC_PERFBENCH_SPANS_H_

// In-memory spans recorded by the benchmark around its calls into the
// library: name, start, end, parent and request id.  Calls too short and
// too many to record one by one (one per canonical database) are folded
// into one aggregate span per parent, which keeps their count and summed
// duration.  Spans stay in memory until the run ends and are written out
// as JSON lines.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t dur_ns = 0;  // end - start, or the summed calls of an aggregate
  int64_t calls = 1;
  int parent = -1;
  int request = -1;
};

/// Self time per span name: a span's duration minus the durations of its
/// direct children.
struct SelfTimes {
  std::map<std::string, int64_t> ns;
  int64_t root_ns = 0;  // summed duration of the parentless spans
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int Begin(const char* name, int request);
  void End(int index);

  /// An aggregate child of the innermost open span; feed it with Add.
  int BeginAggregate(const char* name, int request);
  void Add(int index, int64_t start_ns, int64_t end_ns) {
    Span& s = spans_[static_cast<size_t>(index)];
    if (s.calls == 0) s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.dur_ns += end_ns - start_ns;
    ++s.calls;
  }

  size_t size() const { return spans_.size(); }
  SelfTimes SelfTimesSince(size_t first) const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int request)
      : recorder_(recorder), index_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

}  // namespace perfbench

#endif  // CQAC_PERFBENCH_SPANS_H_
