#ifndef CQAC_OBS_METRICS_H_
#define CQAC_OBS_METRICS_H_

// Typed runtime metrics for the rewriting runtime: counters (monotonic
// sums), gauges (last/maximum value), and histograms (log2-bucketed
// distributions), owned by a process-wide registry.
//
// The registry is always compiled in — unlike span tracing there is no
// build-time gate — because a metric that is never updated costs nothing.
// Updates are lock-free (relaxed atomics); only name registration takes a
// mutex, and instrumented hot paths cache the returned reference (entries
// are never removed, so references stay valid for the process lifetime;
// Reset zeroes values in place).
//
// Instrumentation that needs extra work *to produce a value* — e.g. a
// steady_clock read per canonical database for a latency histogram —
// additionally checks MetricsActive(), a runtime switch behind
// `cqacsh --metrics`, so idle builds pay nothing but a relaxed load.
//
// Naming convention (see docs/OBSERVABILITY.md): lower-case
// `<component>.<what>`, with `_ns` suffixes on durations, e.g.
// `threadpool.max_queue_depth`, `phase1.db_wall_ns`.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cqac {
namespace obs {

/// A monotonically increasing sum.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A point-in-time value; Set overwrites, Max keeps the high watermark.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Max(int64_t value) {
    int64_t current = value_.load(std::memory_order_relaxed);
    while (value > current &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A distribution of non-negative values in power-of-two buckets: bucket b
/// counts values whose bit width is b (bucket 0 holds exactly 0), i.e.
/// values in [2^(b-1), 2^b).  Good to a factor of two, which is all a
/// wall-time distribution needs.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when the histogram is empty.
  int64_t min() const;
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Estimated `quantile` (in [0,1]); 0 when empty.  Locates the bucket
  /// where the cumulative count reaches the quantile rank, then midpoint-
  /// interpolates within it (values assumed uniform across the bucket),
  /// clamped to the observed [min, max].  Without interpolation the
  /// power-of-two buckets collapse nearby quantiles to one bucket upper
  /// bound — p99 == p95 for any distribution inside a factor of two.
  int64_t ApproxQuantile(double quantile) const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{0};
};

/// A histogram over a sliding time window, built from kSlots rotating
/// Histogram slots of window/kSlots each: Observe lands in the slot for
/// the current time; Snap merges the slots still inside the window, so the
/// quantiles answer "p99 over the last ~minute", not "since boot" — the
/// shape an SLO monitor needs.  Rotation reuses the oldest slot in place
/// (an observation racing the reset at a 10s boundary can be lost; SLO
/// estimation tolerates that, and every operation stays lock-free).
class WindowedHistogram {
 public:
  static constexpr int kSlots = 6;

  explicit WindowedHistogram(
      int64_t window_ns = int64_t{60} * 1000 * 1000 * 1000);

  /// Records `value` at the current steady-clock time.
  void Observe(int64_t value);
  /// Records at an explicit time (tests).
  void ObserveAt(int64_t now_ns, int64_t value);

  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    int64_t buckets[Histogram::kBuckets] = {};
    int64_t p50 = 0;
    int64_t p95 = 0;
    int64_t p99 = 0;
  };

  /// Merged view of the slots inside the window ending now.
  Snapshot Snap() const;
  Snapshot SnapAt(int64_t now_ns) const;

  int64_t window_ns() const { return window_ns_; }
  void Reset();

 private:
  int64_t slot_ns_;
  int64_t window_ns_;
  Histogram slots_[kSlots];
  // Epoch (now / slot_ns) each slot currently holds; -1 when never used.
  std::atomic<int64_t> slot_epoch_[kSlots];
};

namespace internal {
/// The quantile estimator shared by Histogram, WindowedHistogram, and the
/// Prometheus exporter: rank-locates the bucket, midpoint-interpolates
/// within it, clamps to the observed [min_value, max_value].
int64_t QuantileFromBuckets(const int64_t buckets[Histogram::kBuckets],
                            int64_t total, int64_t min_value,
                            int64_t max_value, double quantile);
/// Inclusive upper bound of log2 bucket `b` (0 for b==0).
int64_t BucketUpperBound(int b);
}  // namespace internal

/// The process-wide name -> metric table.  Lookup-or-create is
/// mutex-guarded; the returned references are valid forever.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  WindowedHistogram& windowed(const std::string& name);

  /// Zeroes every registered metric in place (references stay valid).
  void Reset();

  /// One line per metric, sorted by name within each type:
  ///   counter <name> <value>
  ///   gauge <name> <value>
  ///   histogram <name> count=<n> sum=<s> min=<m> max=<M> p50<=<q> ...
  void DumpText(std::ostream& out) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  /// {"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}}}
  void DumpJson(std::ostream& out) const;

  /// Point-in-time copies of the registered metrics, name-sorted — the
  /// exporter's view (obs/prometheus.h) without holding the registry lock
  /// while rendering.
  struct HistogramEntry {
    std::string name;
    int64_t buckets[Histogram::kBuckets] = {};
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  struct WindowedEntry {
    std::string name;
    int64_t window_ns = 0;
    WindowedHistogram::Snapshot snap;
  };
  std::vector<std::pair<std::string, int64_t>> CounterEntries() const;
  std::vector<std::pair<std::string, int64_t>> GaugeEntries() const;
  std::vector<HistogramEntry> HistogramEntries() const;
  std::vector<WindowedEntry> WindowedEntries() const;

  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>> windowed_;
};

/// Runtime switch for instrumentation whose *value production* costs
/// something (clock reads on per-database paths).  Off by default.
void EnableMetrics(bool enabled);
bool MetricsActive();

}  // namespace obs
}  // namespace cqac

#endif  // CQAC_OBS_METRICS_H_
