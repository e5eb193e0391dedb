#include "obs/metrics.h"

#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "parser/parser.h"
#include "rewriting/expansion.h"

namespace cqac {
namespace {

TEST(MetricsTest, CounterAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add(1);
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(MetricsTest, GaugeSetAndMax) {
  obs::Gauge g;
  g.Set(7);
  EXPECT_EQ(g.value(), 7);
  g.Max(3);  // Lower value does not regress the gauge.
  EXPECT_EQ(g.value(), 7);
  g.Max(9);
  EXPECT_EQ(g.value(), 9);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsTest, HistogramStatsAndQuantiles) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0);
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 5050);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  // Power-of-two buckets: the quantile is an inclusive upper bound that
  // never undershoots the true value's bucket.
  EXPECT_GE(h.ApproxQuantile(0.5), 50);
  EXPECT_GE(h.ApproxQuantile(0.99), 99);
  EXPECT_LE(h.ApproxQuantile(0.5), 127);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
}

TEST(MetricsTest, HistogramNegativeClampsToZero) {
  obs::Histogram h;
  h.Observe(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("a");
  a.Add(1);
  // Registering more metrics must not invalidate earlier references —
  // instrumentation caches them in static locals.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler" + std::to_string(i));
  }
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(a.value(), 1);
  // Reset zeroes in place rather than discarding the object.
  reg.Reset();
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(a.value(), 0);
}

TEST(MetricsTest, DumpTextFormat) {
  obs::MetricsRegistry reg;
  reg.counter("hits").Add(3);
  reg.gauge("depth").Set(5);
  reg.histogram("wall").Observe(10);
  std::ostringstream out;
  reg.DumpText(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("counter hits 3\n"), std::string::npos);
  EXPECT_NE(text.find("gauge depth 5\n"), std::string::npos);
  EXPECT_NE(text.find("histogram wall count=1 sum=10 min=10 max=10"),
            std::string::npos);
}

TEST(MetricsTest, DumpJsonFormat) {
  obs::MetricsRegistry reg;
  reg.counter("hits").Add(3);
  reg.histogram("wall").Observe(10);
  std::ostringstream out;
  reg.DumpJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\": {\"hits\": 3}"), std::string::npos);
  EXPECT_NE(json.find("\"wall\": {\"count\": 1, \"sum\": 10"),
            std::string::npos);
}

TEST(MetricsTest, EnableGateTogglesGlobalCollection) {
  EXPECT_FALSE(obs::MetricsActive());
  obs::EnableMetrics(true);
  EXPECT_TRUE(obs::MetricsActive());
  obs::EnableMetrics(false);
  EXPECT_FALSE(obs::MetricsActive());
}

/// Hammer a shared counter, gauge, and histogram from many threads; run
/// under ThreadSanitizer via `ctest -L tsan` this proves the relaxed
/// atomics are race-free, and the totals prove no update is lost.
TEST(MetricsTest, ConcurrentUpdatesAreRaceFreeAndLossless) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      // Registration races on the name map are part of the test.
      obs::Counter& c = reg.counter("hammer.count");
      obs::Gauge& g = reg.gauge("hammer.depth");
      obs::Histogram& h = reg.histogram("hammer.wall");
      for (int i = 0; i < kPerThread; ++i) {
        c.Add(1);
        g.Max(t * kPerThread + i);
        h.Observe(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(reg.counter("hammer.count").value(), kThreads * kPerThread);
  EXPECT_EQ(reg.gauge("hammer.depth").value(), kThreads * kPerThread - 1);
  EXPECT_EQ(reg.histogram("hammer.wall").count(), kThreads * kPerThread);
  EXPECT_EQ(reg.histogram("hammer.wall").max(), kPerThread - 1);
}

// --------------------------------------------------- quantile estimation

// Midpoint interpolation pinned on known distributions.  The log2
// buckets bound the achievable precision, but at bucket boundaries the
// estimate must neither undershoot the lower bucket edge nor jump to the
// upper edge the way pure upper-bound reporting did.
TEST(MetricsTest, QuantileInterpolationPinnedDistributions) {
  obs::Histogram h;
  // Uniform 1..100: every value lands in a low bucket with tight edges,
  // so interpolation should be close to the exact percentile.
  for (int64_t v = 1; v <= 100; ++v) h.Observe(v);
  EXPECT_NEAR(static_cast<double>(h.ApproxQuantile(0.5)), 50.0, 14.0);
  EXPECT_NEAR(static_cast<double>(h.ApproxQuantile(0.95)), 95.0, 17.0);
  EXPECT_NEAR(static_cast<double>(h.ApproxQuantile(0.99)), 99.0, 15.0);
  // No estimate may leave the observed range.
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.ApproxQuantile(q), 1);
    EXPECT_LE(h.ApproxQuantile(q), 100);
  }
}

TEST(MetricsTest, QuantileDegenerateDistributionIsExact) {
  // All observations equal: clamping to [min, max] makes every quantile
  // exactly that value, where upper-bound reporting said 127.
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.Observe(100);
  EXPECT_EQ(h.ApproxQuantile(0.5), 100);
  EXPECT_EQ(h.ApproxQuantile(0.99), 100);
  EXPECT_EQ(h.ApproxQuantile(1.0), 100);
}

TEST(MetricsTest, QuantileAtBucketBoundary) {
  // 64 is the first value of the [64, 127] bucket; a boundary value must
  // not be reported as the bucket's upper edge.
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.Observe(64);
  EXPECT_EQ(h.ApproxQuantile(0.5), 64);
  // Mixed boundary: half at 64, half at 127 (same bucket's two edges).
  obs::Histogram mixed;
  for (int i = 0; i < 50; ++i) mixed.Observe(64);
  for (int i = 0; i < 50; ++i) mixed.Observe(127);
  const int64_t p50 = mixed.ApproxQuantile(0.5);
  EXPECT_GE(p50, 64);
  EXPECT_LE(p50, 127);
  // The midpoint rule lands mid-bucket rather than pinning to an edge.
  EXPECT_NEAR(static_cast<double>(p50), 95.5, 16.0);
}

TEST(MetricsTest, QuantileTwoBucketSplit) {
  // 90 observations in the [32, 63] bucket, 10 in [1024, 2047]: p50 must
  // come from the low bucket, p99 from the high one.
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.Observe(40);
  for (int i = 0; i < 10; ++i) h.Observe(1500);
  EXPECT_GE(h.ApproxQuantile(0.5), 32);
  EXPECT_LE(h.ApproxQuantile(0.5), 63);
  EXPECT_GE(h.ApproxQuantile(0.99), 1024);
  EXPECT_LE(h.ApproxQuantile(0.99), 1500);  // clamped to observed max
}

TEST(MetricsTest, QuantileEmptyHistogramIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.ApproxQuantile(0.5), 0);
  EXPECT_EQ(h.ApproxQuantile(0.99), 0);
}

// ----------------------------------------------------- windowed histogram

TEST(MetricsTest, WindowedHistogramMergesLiveSlots) {
  const int64_t kWindow = 60LL * 1000 * 1000 * 1000;
  obs::WindowedHistogram w(kWindow);
  const int64_t t0 = 1000 * kWindow;
  for (int64_t v = 1; v <= 100; ++v) w.ObserveAt(t0 + v, v);
  const obs::WindowedHistogram::Snapshot snap = w.SnapAt(t0 + 1000);
  EXPECT_EQ(snap.count, 100);
  EXPECT_EQ(snap.sum, 5050);
  EXPECT_EQ(snap.min, 1);
  EXPECT_EQ(snap.max, 100);
  EXPECT_NEAR(static_cast<double>(snap.p50), 50.0, 14.0);
  EXPECT_NEAR(static_cast<double>(snap.p99), 99.0, 15.0);
}

TEST(MetricsTest, WindowedHistogramExpiresOldSlots) {
  const int64_t kWindow = 60LL * 1000 * 1000 * 1000;
  obs::WindowedHistogram w(kWindow);
  const int64_t t0 = 1000 * kWindow;
  w.ObserveAt(t0, 7);
  // Within the window the observation is visible...
  EXPECT_EQ(w.SnapAt(t0 + kWindow / 2).count, 1);
  // ...after more than a full window has passed, it is not.
  EXPECT_EQ(w.SnapAt(t0 + 2 * kWindow + 1).count, 0);
}

TEST(MetricsTest, WindowedHistogramReusesExpiredSlots) {
  const int64_t kWindow = 6LL * 1000;  // 1us slots for a fast wrap
  obs::WindowedHistogram w(kWindow);
  const int64_t t0 = 100 * kWindow;
  // Drive enough slot epochs to wrap the ring several times; counts from
  // reused slots must never leak into later windows.
  for (int64_t epoch = 0; epoch < 30; ++epoch) {
    w.ObserveAt(t0 + epoch * (kWindow / 6), 5);
  }
  const obs::WindowedHistogram::Snapshot snap =
      w.SnapAt(t0 + 29 * (kWindow / 6));
  EXPECT_LE(snap.count, 6);
  EXPECT_GE(snap.count, 1);
}

TEST(MetricsTest, RegistryWindowedIsStableAndResets) {
  obs::MetricsRegistry reg;
  obs::WindowedHistogram& w = reg.windowed("slo");
  EXPECT_EQ(&w, &reg.windowed("slo"));
  w.Observe(42);
  EXPECT_EQ(w.Snap().count, 1);
  reg.Reset();
  EXPECT_EQ(w.Snap().count, 0);
}

/// The simplify.* counters of one SimplifyQuery call on a query that
/// needs both fold kinds: W -> Z is a single-variable fold, while the
/// chain r(A,X), r(X,Y) folds onto r(A,U), r(U,V) only as a whole (the
/// SearchFold theta-search).  Counts derived by hand in the comments.
TEST(MetricsTest, SimplifyCountersForOneQuery) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const char* names[] = {"simplify.fold_candidates", "simplify.single_folds",
                         "simplify.sat_checks", "simplify.search_leaf_checks"};
  int64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = registry.counter(names[i]).value();
  const std::optional<ConjunctiveQuery> simplified =
      SimplifyQuery(Parser::MustParseRule(
          "q(A) :- r(A,X), r(X,Y), r(A,U), r(U,V), s(A,W), s(A,Z), "
          "X < 5, U < 5, W <= Z"));
  ASSERT_TRUE(simplified.has_value());
  EXPECT_EQ(simplified->ToString(), "q(A) :- r(A,U), r(U,V), s(A,Z), U < 5");
  int64_t delta[4];
  for (int i = 0; i < 4; ++i) {
    delta[i] = registry.counter(names[i]).value() - before[i];
  }
  // Candidates X, Y, U, V, W, Z against targets A, X, Y, U, V, W, Z: the
  // first four fail every atom check (4 x 6 pairs); W -> A fails, W -> X,
  // W -> Y, W -> U, W -> V fail their atom checks, W -> Z succeeds
  // (24 + 6 = 30).  After the fold, X, Y, U, V, Z against A, X, Y, U, V,
  // Z find nothing (5 x 5 = 25).  After the theta fold, U, V, Z against
  // A, U, V, Z find nothing (3 x 3 = 9).
  EXPECT_EQ(delta[0], 30 + 25 + 9);
  EXPECT_EQ(delta[1], 1);
  // Forced equalities (1); RemoveRedundant on 3 comparisons (1 + 3);
  // W -> Z's image Z <= Z (1); RemoveRedundant after it on X < 5,
  // U < 5, Z <= Z (1 + 3, dropping Z <= Z); the theta-search's leaf
  // checks below (2); after the theta fold on U < 5, U < 5 (1 + 2,
  // dropping one).
  EXPECT_EQ(delta[2], 1 + 4 + 1 + 4 + 2 + 3);
  // The theta-search reaches one leaf and checks both comparisons.
  EXPECT_EQ(delta[3], 2);
}

}  // namespace
}  // namespace cqac
