// kea::obs v2 percentile/SLO/profiler layer (ISSUE 9): histogram Quantile()
// accuracy against exact sample quantiles on uniform, lognormal and
// point-mass inputs (relative error bounded by the bucket growth factor),
// the SloTracker's multiwindow burn-rate semantics on a virtual clock, the
// phase profiler's attribution and self-overhead accounting, and the
// Prometheus text exposition.

#include "obs/slo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace kea::obs {
namespace {

class ObsSloTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef KEA_OBS_DISABLED
    GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
    Enable();
    Registry::Get().ResetForTest();
    PhaseProfiler::Get().ResetForTest();
  }
  void TearDown() override { Enable(); }
};

// ---------------------------------------------------------------------------
// Histogram quantiles (S4)

double ExactQuantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double target = q * static_cast<double>(xs.size());
  size_t idx = static_cast<size_t>(target);
  if (idx >= xs.size()) idx = xs.size() - 1;
  return xs[idx];
}

/// Feeds `xs` into a fresh histogram with the given bucket ladder and checks
/// Quantile(q) against the exact sample quantile within `rel_bound` for
/// every q in `qs` (absolute slack for values near zero).
void CheckQuantiles(const std::string& name, const std::vector<double>& bounds,
                    const std::vector<double>& xs, double rel_bound) {
  Histogram* h =
      Registry::Get().GetHistogram(name, "", bounds, Kind::kTiming);
  for (double x : xs) h->Observe(x);
  for (double q : {0.10, 0.25, 0.50, 0.90, 0.95, 0.99}) {
    const double exact = ExactQuantile(xs, q);
    const double est = h->Quantile(q);
    const double err = std::abs(est - exact);
    EXPECT_LE(err, rel_bound * std::max(std::abs(exact), 1e-9) + 1e-9)
        << name << " q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST_F(ObsSloTest, QuantileAccuracyUniform) {
  // growth 1.15 ladder => relative error <= 15% inside the covered range;
  // the interpolation typically does far better on smooth data.
  Rng rng(7);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Uniform(1.0, 1000.0));
  CheckQuantiles("slo.q_uniform", ExponentialBuckets(1.0, 1.15, 60), xs, 0.15);
}

TEST_F(ObsSloTest, QuantileAccuracyLognormal) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.LogNormal(3.0, 0.8));
  // Lognormal tail spans the ladder; same growth bound applies.
  CheckQuantiles("slo.q_lognormal", ExponentialBuckets(0.5, 1.15, 80), xs, 0.15);
}

TEST_F(ObsSloTest, QuantilePointMass) {
  // Every observation identical: all quantiles must land in the containing
  // bucket, i.e. within one bucket width of the mass.
  Histogram* h = Registry::Get().GetHistogram(
      "slo.q_point", "", ExponentialBuckets(1.0, 2.0, 12), Kind::kTiming);
  for (int i = 0; i < 5000; ++i) h->Observe(42.0);
  for (double q : {0.01, 0.5, 0.99}) {
    const double est = h->Quantile(q);
    // 42 lands in the (32, 64] bucket.
    EXPECT_GT(est, 32.0) << "q=" << q;
    EXPECT_LE(est, 64.0) << "q=" << q;
  }
}

TEST_F(ObsSloTest, QuantileEdgeCases) {
  Registry& reg = Registry::Get();
  // Empty histogram: 0 for any q.
  Histogram* empty =
      reg.GetHistogram("slo.q_empty", "", {1.0, 2.0}, Kind::kTiming);
  EXPECT_DOUBLE_EQ(empty->Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty->Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty->Quantile(1.0), 0.0);

  // No finite bounds (single +inf bucket): no shape, falls back to mean().
  Histogram* shapeless = reg.GetHistogram("slo.q_shapeless", "",
                                          std::vector<double>{}, Kind::kTiming);
  shapeless->Observe(10.0);
  shapeless->Observe(20.0);
  EXPECT_DOUBLE_EQ(shapeless->Quantile(0.5), 15.0);

  // Single finite bucket; overflow values saturate at the last finite bound.
  Histogram* single =
      reg.GetHistogram("slo.q_single", "", {100.0}, Kind::kTiming);
  single->Observe(50.0);
  single->Observe(500.0);
  EXPECT_LE(single->Quantile(0.25), 100.0);
  EXPECT_DOUBLE_EQ(single->Quantile(0.99), 100.0);  // in the +inf bucket

  // Out-of-range q clamps rather than faulting.
  EXPECT_GE(single->Quantile(-0.5), 0.0);
  EXPECT_LE(single->Quantile(1.5), 100.0);
}

// ---------------------------------------------------------------------------
// SloTracker

TEST_F(ObsSloTest, BurnRateIsBadFractionOverBudget) {
  SloOptions opts;
  opts.target_ms = 100.0;
  opts.objective = 0.9;  // budget = 0.1
  opts.fast_window_ms = 1000;
  opts.slow_window_ms = 10000;
  opts.bucket_ms = 100;
  SloTracker slo(opts);

  // 18 good, 2 bad at t=1000: bad fraction 0.1 -> burn exactly 1.0.
  for (int i = 0; i < 18; ++i) slo.Record(50.0, false, 1000);
  slo.Record(500.0, false, 1000);  // over target: bad
  slo.Record(50.0, true, 1000);    // error: bad
  EXPECT_DOUBLE_EQ(slo.FastBurn(1000), 1.0);
  EXPECT_DOUBLE_EQ(slo.SlowBurn(1000), 1.0);
  EXPECT_EQ(slo.total(), 20u);
  EXPECT_EQ(slo.bad(), 2u);

  // The fast window forgets: 2s later those events left the 1s window but
  // remain in the 10s window.
  EXPECT_DOUBLE_EQ(slo.FastBurn(3000), 0.0);
  EXPECT_DOUBLE_EQ(slo.SlowBurn(3000), 1.0);
}

TEST_F(ObsSloTest, MultiwindowAlertNeedsBothWindowsHot) {
  SloOptions opts;
  opts.target_ms = 100.0;
  opts.objective = 0.9;
  opts.fast_window_ms = 500;
  opts.slow_window_ms = 5000;
  opts.fast_burn_alert = 6.0;
  opts.slow_burn_alert = 2.0;
  opts.bucket_ms = 100;
  SloTracker slo(opts);

  // A short 100%-bad burst: fast burn 10 (hot), but the slow window is still
  // diluted by nothing -> both windows see only the burst, so both are hot.
  for (int i = 0; i < 10; ++i) slo.Record(500.0, false, 1000);
  EXPECT_DOUBLE_EQ(slo.FastBurn(1000), 10.0);
  EXPECT_TRUE(slo.Alerting(1000));

  // Pad the slow window with good traffic; the same later burst keeps the
  // fast window hot but the slow window now stays under its threshold —
  // the classic blip the multiwindow rule filters.
  SloTracker padded(opts);
  for (int t = 0; t < 45; ++t) padded.Record(10.0, false, t * 100);
  for (int i = 0; i < 8; ++i) padded.Record(500.0, false, 4600);
  EXPECT_GE(padded.FastBurn(4600), opts.fast_burn_alert);
  EXPECT_LT(padded.SlowBurn(4600), opts.slow_burn_alert);
  EXPECT_FALSE(padded.Alerting(4600));
}

TEST_F(ObsSloTest, TrackerIsDeterministicAndClampsTimeRegressions) {
  SloOptions opts;
  opts.fast_window_ms = 1000;
  opts.slow_window_ms = 4000;
  opts.bucket_ms = 100;
  auto drive = [&] {
    SloTracker slo(opts);
    for (int i = 0; i < 200; ++i) {
      slo.Record((i % 7) * 300.0, i % 13 == 0, 100 + i * 37);
    }
    return slo.Describe(100 + 199 * 37);
  };
  EXPECT_EQ(drive(), drive());  // same inputs -> same rendering, always

  SloTracker slo(opts);
  slo.Record(10.0, false, 5000);
  slo.Record(10.0, false, 1000);  // time regression: clamped, not corrupting
  EXPECT_EQ(slo.total(), 2u);
  EXPECT_DOUBLE_EQ(slo.FastBurn(5000), 0.0);
}

// ---------------------------------------------------------------------------
// Phase profiler

TEST_F(ObsSloTest, ProfilerAttributesNestedPhases) {
  PhaseProfiler& prof = PhaseProfiler::Get();
  const uint64_t scopes_before = prof.scope_count();
  {
    KEA_TRACE_SPAN("outer");
    {
      KEA_TRACE_SPAN("inner");
      volatile double sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
    { KEA_TRACE_SPAN("inner"); }
  }
  EXPECT_EQ(prof.scope_count(), scopes_before + 3);

  const std::string folded = prof.CollapsedStack();
  // Collapsed-stack lines: "outer <self>" and "outer;inner <self>".
  EXPECT_NE(folded.find("outer "), std::string::npos) << folded;
  EXPECT_NE(folded.find("outer;inner "), std::string::npos) << folded;
  // No orphan "inner" line at the root.
  EXPECT_EQ(folded.find("\ninner"), std::string::npos) << folded;

  const std::string summary = prof.SelfOverheadSummary();
  EXPECT_NE(summary.find("scopes=3"), std::string::npos) << summary;
  EXPECT_GT(prof.calibrated_scope_cost_ns(), 0.0);
}

TEST_F(ObsSloTest, ProfilerMergesThreadsAndDisablesCleanly) {
  PhaseProfiler& prof = PhaseProfiler::Get();
  {
    KEA_TRACE_SPAN("work");
  }
  std::thread t([] {
    KEA_TRACE_SPAN("work");
  });
  t.join();
  // Two threads, one path: one shared "work <ns>" line.
  const std::string folded = prof.CollapsedStack();
  const size_t first = folded.find("work ");
  ASSERT_NE(first, std::string::npos) << folded;
  EXPECT_EQ(folded.find("work ", first + 1), std::string::npos) << folded;

  Disable();
  const uint64_t scopes = prof.scope_count();
  { KEA_TRACE_SPAN("ignored"); }
  EXPECT_EQ(prof.scope_count(), scopes);
  EXPECT_EQ(prof.CollapsedStack().find("ignored"), std::string::npos);
  Enable();
}

// ResetForTest must leave every node a live thread may still stand on: a
// thread inside a scope across the reset keeps entering scopes under it.
TEST_F(ObsSloTest, ProfilerResetKeepsNodesOfLiveThreads) {
  PhaseProfiler& prof = PhaseProfiler::Get();
  std::mutex mu;
  std::condition_variable cv;
  int step = 0;
  auto advance_to = [&](int next) {
    {
      std::lock_guard<std::mutex> lock(mu);
      step = next;
    }
    cv.notify_all();
  };
  auto wait_for = [&](int target) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return step >= target; });
  };
  std::thread persistent([&] {
    KEA_TRACE_SPAN("reset.outer");
    { KEA_TRACE_SPAN("reset.inner"); }
    advance_to(1);
    wait_for(2);  // the main thread resets the trie here
    { KEA_TRACE_SPAN("reset.inner"); }
    advance_to(3);
    wait_for(4);
  });
  wait_for(1);
  prof.ResetForTest();
  advance_to(2);
  wait_for(3);
  PhaseNode* inner = prof.Child(prof.Child(nullptr, "reset.outer"),
                                "reset.inner");
  EXPECT_EQ(inner->count.load(), 1u);
  // reset.outer was entered before the reset, so only reset.inner counts.
  EXPECT_EQ(prof.scope_count(), 1u);
  advance_to(4);
  persistent.join();
  EXPECT_NE(prof.CollapsedStack().find("reset.outer;reset.inner "),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST_F(ObsSloTest, PrometheusExpositionShape) {
  Registry& reg = Registry::Get();
  reg.GetCounter("prom.events")->Increment(5);
  reg.GetCounter("prom.events", "kind=a")->Increment(2);
  reg.GetGauge("prom.depth", "", Kind::kTiming)->Set(3.5);
  Histogram* h =
      reg.GetHistogram("prom.lat_ms", "", {1.0, 10.0}, Kind::kTiming);
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);

  const std::string text = reg.RenderPrometheus(true);
  // Names sanitized, one TYPE line per family, labels rendered.
  EXPECT_NE(text.find("# TYPE prom_events counter"), std::string::npos) << text;
  EXPECT_NE(text.find("prom_events 5"), std::string::npos);
  EXPECT_NE(text.find("prom_events{kind=\"a\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE prom_lat_ms histogram"), std::string::npos);
  // Cumulative buckets and the +Inf catch-all.
  EXPECT_NE(text.find("prom_lat_ms_bucket{le=\"1\"} 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("prom_lat_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("prom_lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("prom_lat_ms_count 3"), std::string::npos);

  // Deterministic-only exposition excludes the timing instruments.
  const std::string det = reg.RenderPrometheus(false);
  EXPECT_NE(det.find("prom_events 5"), std::string::npos);
  EXPECT_EQ(det.find("prom_lat_ms"), std::string::npos);
  EXPECT_EQ(det.find("prom_depth"), std::string::npos);
}

}  // namespace
}  // namespace kea::obs
