#include "ml/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace kea::ml {
namespace {

TEST(SummarizeTest, BasicMoments) {
  auto s = Summarize({1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->count, 4u);
  EXPECT_DOUBLE_EQ(s->mean, 2.5);
  EXPECT_NEAR(s->variance, 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s->min, 1.0);
  EXPECT_DOUBLE_EQ(s->max, 4.0);
}

TEST(SummarizeTest, EmptyIsError) {
  EXPECT_EQ(Summarize({}).status().code(), StatusCode::kInvalidArgument);
}

TEST(SummarizeTest, SingleObservationHasZeroVariance) {
  auto s = Summarize({5.0});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(s->variance, 0.0);
}

TEST(MeanVarianceTest, MatchSummary) {
  std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v = {3.0, 1.0, 2.0, 5.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5).value(), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0).value(), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0).value(), 5.0);
}

TEST(QuantileTest, Interpolates) {
  std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25).value(), 2.5);
}

// The sort-based definition that Quantile computes by selection.
double SortedQuantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  double pos = q * static_cast<double>(sample.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sample.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sample[lo] * (1.0 - frac) + sample[hi] * frac;
}

TEST(QuantileTest, SelectionMatchesSortBitForBit) {
  Rng rng(17);
  for (int trial = 0; trial < 600; ++trial) {
    // Odd and even sizes; every third sample is drawn from six values, so
    // it is full of duplicates.
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 40));
    std::vector<double> sample(n);
    for (double& v : sample) {
      v = trial % 3 == 0 ? static_cast<double>(rng.UniformInt(1, 6))
                         : rng.Gaussian(0.0, 10.0);
    }
    for (double q : {0.0, 0.25, 0.5, 1.0, rng.Uniform()}) {
      auto got = Quantile(sample, q);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(std::bit_cast<uint64_t>(*got),
                std::bit_cast<uint64_t>(SortedQuantile(sample, q)))
          << "n=" << n << " q=" << q;
    }
  }
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// `v` with its low `bits` mantissa bits replaced by random ones.
double WithRandomLowBits(double v, int bits, Rng* rng) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const uint64_t low = static_cast<uint64_t>(rng->Uniform(0.0, static_cast<double>(mask)));
  return std::bit_cast<double>((std::bit_cast<uint64_t>(v) & ~mask) | low);
}

/// Sample sizes from 1 to 4,000: every select depth and both parities.
std::vector<size_t> QuantileSizes(Rng* rng) {
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 31, 32, 33, 34, 64, 65, 100, 101,
                               1000, 1001, 2047, 2048, 3359, 3360, 3999, 4000};
  for (int i = 0; i < 16; ++i) sizes.push_back(1 + static_cast<size_t>(rng->Uniform(0.0, 4000.0)));
  return sizes;
}

TEST(QuantileTest, RadixSelectMatchesSortBitForBit) {
  // Samples with no sign bit set take the radix select: the values of the
  // sorted sample at ranks lo and lo + 1, bit for bit, whatever the ties.
  Rng rng(23);
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const std::vector<double> small_set = {0.0, 1.0, 2.5, 1e-300, subnormal, inf};
  const std::vector<std::pair<std::string, std::function<double()>>> generators = {
      {"uniform", [&] { return rng.Uniform(0.0, 100.0); }},
      {"ties", [&] { return small_set[static_cast<size_t>(rng.Uniform(0.0, 6.0))]; }},
      {"all equal", [&] { return 3.25; }},
      {"subnormals", [&] { return subnormal * std::floor(rng.Uniform(1.0, 1e6)); }},
      {"specials",
       [&] {
         switch (static_cast<int>(rng.Uniform(0.0, 5.0))) {
           case 0: return 0.0;
           case 1: return WithRandomLowBits(subnormal, 40, &rng);
           case 2: return inf;
           case 3: return std::numeric_limits<double>::max();
           default: return rng.Uniform(0.0, 1.0);
         }
       }},
      {"shared bits low 8", [&] { return WithRandomLowBits(1.5, 8, &rng); }},
      {"shared bits low 20", [&] { return WithRandomLowBits(1e6, 20, &rng); }},
  };
  for (const auto& [name, draw] : generators) {
    for (size_t n : QuantileSizes(&rng)) {
      std::vector<double> sample(n);
      for (double& v : sample) v = draw();
      for (double q : {0.0, 0.25, 0.5, 1.0, rng.Uniform()}) {
        const StatusOr<double> got = Quantile(sample, q);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(Bits(*got), Bits(SortedQuantile(sample, q)))
            << name << " n=" << n << " q=" << q;
      }
    }
  }
}

TEST(QuantileTest, SignedSamplesMatchSort) {
  // A sample with a negative value or a -0.0 takes nth_element. -0.0 and
  // +0.0 are equal, and neither sort nor nth_element fixes which one lands
  // at a rank, so a zero result is compared by value.
  Rng rng(29);
  const std::vector<std::pair<std::string, std::function<double()>>> generators = {
      {"mixed sign", [&] { return rng.Gaussian(0.0, 10.0); }},
      {"signed zeros", [&] { return rng.Uniform(0, 1) < 0.5 ? 0.0 : -0.0; }},
      {"zeros and positives",
       [&] { return rng.Uniform(0, 1) < 0.3 ? -0.0 : rng.Uniform(0.0, 1.0) < 0.5 ? 0.0 : 2.0; }},
  };
  for (const auto& [name, draw] : generators) {
    for (size_t n : QuantileSizes(&rng)) {
      std::vector<double> sample(n);
      for (double& v : sample) v = draw();
      for (double q : {0.0, 0.25, 0.5, 1.0, rng.Uniform()}) {
        const StatusOr<double> got = Quantile(sample, q);
        ASSERT_TRUE(got.ok()) << got.status();
        const double want = SortedQuantile(sample, q);
        if (want == 0.0) {
          EXPECT_EQ(*got, want) << name << " n=" << n << " q=" << q;
        } else {
          EXPECT_EQ(Bits(*got), Bits(want)) << name << " n=" << n << " q=" << q;
        }
      }
    }
  }
}

TEST(QuantileTest, Validation) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Quantile({}, 0.5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quantile({1.0}, 1.5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quantile({1.0}, -0.1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quantile({1.0}, nan).status().code(), StatusCode::kInvalidArgument);
  // A NaN has no rank: nth_element would be handed a comparison that is not
  // a strict weak order.
  EXPECT_EQ(Quantile({1.0, nan, 2.0}, 0.5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quantile({-1.0, -nan, 2.0}, 0.5).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quantile({nan}, 0.0).status().code(), StatusCode::kInvalidArgument);
}

TEST(HistogramTest, CountsAndClamping) {
  auto h = MakeHistogram({0.5, 1.5, 1.6, 2.5, -10.0, 10.0}, 0.0, 3.0, 3);
  ASSERT_TRUE(h.ok());
  // Bins: [0,1), [1,2), [2,3); out-of-range clamps to edge bins.
  EXPECT_EQ(h->counts[0], 2u);  // 0.5 and -10 (clamped).
  EXPECT_EQ(h->counts[1], 2u);
  EXPECT_EQ(h->counts[2], 2u);  // 2.5 and 10 (clamped).
}

TEST(HistogramTest, BinCenter) {
  auto h = MakeHistogram({}, 0.0, 10.0, 5);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->BinCenter(0), 1.0);
  EXPECT_DOUBLE_EQ(h->BinCenter(4), 9.0);
}

TEST(HistogramTest, Validation) {
  EXPECT_FALSE(MakeHistogram({}, 0.0, 1.0, 0).ok());
  EXPECT_FALSE(MakeHistogram({}, 1.0, 1.0, 3).ok());
}

TEST(IncompleteBetaTest, BoundaryValues) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(IncompleteBetaTest, SymmetryProperty) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_NEAR(RegularizedIncompleteBeta(2.5, 1.5, x),
                1.0 - RegularizedIncompleteBeta(1.5, 2.5, 1.0 - x), 1e-10);
  }
}

TEST(IncompleteBetaTest, UniformCase) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.37), 0.37, 1e-10);
}

TEST(StudentTCdfTest, SymmetricAroundZero) {
  EXPECT_NEAR(StudentTCdf(0.0, 10.0), 0.5, 1e-12);
  EXPECT_NEAR(StudentTCdf(1.5, 8.0) + StudentTCdf(-1.5, 8.0), 1.0, 1e-10);
}

TEST(StudentTCdfTest, KnownCriticalValues) {
  // t_{0.975, 10} = 2.228: CDF(2.228, 10) ~ 0.975.
  EXPECT_NEAR(StudentTCdf(2.228, 10.0), 0.975, 5e-4);
  // t_{0.95, 5} = 2.015.
  EXPECT_NEAR(StudentTCdf(2.015, 5.0), 0.95, 5e-4);
  // Large dof approaches the normal: CDF(1.96, 1e6) ~ 0.975.
  EXPECT_NEAR(StudentTCdf(1.96, 1e6), 0.975, 1e-3);
}

TEST(StudentTTestTest, DetectsKnownDifference) {
  Rng rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.Gaussian(10.0, 1.0));
    b.push_back(rng.Gaussian(10.5, 1.0));
  }
  auto t = StudentTTest(a, b);
  ASSERT_TRUE(t.ok());
  EXPECT_LT(t->t_statistic, -3.0);
  EXPECT_LT(t->p_value, 0.01);
  EXPECT_TRUE(t->significant_at_05);
  EXPECT_NEAR(t->mean_difference, -0.5, 0.3);
  EXPECT_DOUBLE_EQ(t->degrees_of_freedom, 398.0);
}

TEST(StudentTTestTest, NoDifferenceUsuallyInsignificant) {
  Rng rng(4);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.Gaussian(5.0, 2.0));
    b.push_back(rng.Gaussian(5.0, 2.0));
  }
  auto t = StudentTTest(a, b);
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t->p_value, 0.05);
}

TEST(StudentTTestTest, HandComputedExample) {
  // Two tiny samples with known pooled t.
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {2.0, 4.0, 6.0};
  auto t = StudentTTest(a, b);
  ASSERT_TRUE(t.ok());
  // mean diff = -2; pooled var = (2*1 + 2*4)/4 = 2.5; se = sqrt(2.5*2/3).
  double expected = -2.0 / std::sqrt(2.5 * 2.0 / 3.0);
  EXPECT_NEAR(t->t_statistic, expected, 1e-10);
  EXPECT_DOUBLE_EQ(t->degrees_of_freedom, 4.0);
}

TEST(StudentTTestTest, RejectsTinySamples) {
  EXPECT_FALSE(StudentTTest({1.0}, {1.0, 2.0}).ok());
}

TEST(StudentTTestTest, RejectsZeroVariance) {
  EXPECT_EQ(StudentTTest({2.0, 2.0}, {2.0, 2.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WelchTTestTest, HandlesUnequalVariances) {
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 300; ++i) {
    a.push_back(rng.Gaussian(0.0, 0.5));
    b.push_back(rng.Gaussian(0.3, 4.0));
  }
  auto t = WelchTTest(a, b);
  ASSERT_TRUE(t.ok());
  // Welch dof should be far below the pooled 598 due to variance imbalance.
  EXPECT_LT(t->degrees_of_freedom, 400.0);
  EXPECT_GT(t->degrees_of_freedom, 100.0);
}

TEST(WelchTTestTest, AgreesWithStudentOnEqualVariances) {
  Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.Gaussian(1.0, 1.0));
    b.push_back(rng.Gaussian(1.2, 1.0));
  }
  auto student = StudentTTest(a, b);
  auto welch = WelchTTest(a, b);
  ASSERT_TRUE(student.ok());
  ASSERT_TRUE(welch.ok());
  EXPECT_NEAR(student->t_statistic, welch->t_statistic, 0.01);
  EXPECT_NEAR(student->p_value, welch->p_value, 0.01);
}

TEST(PearsonCorrelationTest, PerfectCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}).value(), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}).value(), -1.0, 1e-12);
}

TEST(PearsonCorrelationTest, IndependentNearZero) {
  Rng rng(7);
  std::vector<double> x, y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.Gaussian());
    y.push_back(rng.Gaussian());
  }
  auto r = PearsonCorrelation(x, y);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(*r, 0.0, 0.05);
}

TEST(PearsonCorrelationTest, Validation) {
  EXPECT_EQ(PearsonCorrelation({1.0}, {1.0, 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PearsonCorrelation({1.0, 1.0}, {1.0, 2.0}).status().code(),
            StatusCode::kFailedPrecondition);
}

// Property: p-values are approximately uniform under the null hypothesis.
class NullPValueTest : public ::testing::TestWithParam<int> {};

TEST_P(NullPValueTest, FalsePositiveRateNearAlpha) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  int significant = 0;
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> a, b;
    for (int i = 0; i < 30; ++i) {
      a.push_back(rng.Gaussian());
      b.push_back(rng.Gaussian());
    }
    auto result = StudentTTest(a, b);
    ASSERT_TRUE(result.ok());
    if (result->significant_at_05) ++significant;
  }
  double rate = static_cast<double>(significant) / trials;
  EXPECT_GT(rate, 0.005);
  EXPECT_LT(rate, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NullPValueTest, ::testing::Values(11, 22, 33));

TEST(PageHinkleyTest, ZeroVarianceStreamNeverAlarmsNeverNaN) {
  // Regression: a perfectly constant stream has stddev 0; without the
  // min_stddev floor standardization would divide by zero. It must yield
  // exactly zero drift — no alarm, no NaN — for any stream length.
  PageHinkleyDetector detector;
  for (int i = 0; i < 500; ++i) {
    EXPECT_FALSE(detector.Observe(5.0)) << "observation " << i;
  }
  EXPECT_FALSE(detector.alarmed());
  EXPECT_TRUE(std::isfinite(detector.drift_magnitude()));
  EXPECT_EQ(detector.mean(), 5.0);
  EXPECT_EQ(detector.stddev(), 0.0);
}

TEST(PageHinkleyTest, JumpOffConstantStreamAlarms) {
  // The other half of the zero-variance guard: a later jump off the constant
  // must still alarm (the z-cap bounds the accumulator, it does not mute it).
  PageHinkleyDetector detector;
  for (int i = 0; i < 100; ++i) ASSERT_FALSE(detector.Observe(5.0));
  bool alarmed = false;
  for (int i = 0; i < 3 && !alarmed; ++i) alarmed = detector.Observe(9.0);
  EXPECT_TRUE(alarmed);
  EXPECT_TRUE(detector.alarmed());
  EXPECT_TRUE(std::isfinite(detector.drift_magnitude()));
}

TEST(PageHinkleyTest, SustainedShiftAlarmsOscillationDoesNot) {
  auto diurnal = [](int hour) {
    return std::sin(2.0 * 3.141592653589793 * static_cast<double>(hour % 24) /
                    24.0);
  };
  // Three weeks of pure diurnal oscillation: symmetric, autocorrelated, and
  // must never alarm (the delta tolerance drains each half-cycle).
  PageHinkleyDetector quiet;
  for (int h = 0; h < 21 * 24; ++h) {
    EXPECT_FALSE(quiet.Observe(10.0 + diurnal(h))) << "hour " << h;
  }
  EXPECT_FALSE(quiet.alarmed());

  // The same stream with a sustained +2-sigma level shift alarms within days.
  PageHinkleyDetector shifted;
  for (int h = 0; h < 10 * 24; ++h) ASSERT_FALSE(shifted.Observe(10.0 + diurnal(h)));
  bool alarmed = false;
  for (int h = 10 * 24; h < 14 * 24 && !alarmed; ++h) {
    alarmed = shifted.Observe(11.5 + diurnal(h));
  }
  EXPECT_TRUE(alarmed);
}

TEST(PageHinkleyTest, DownwardShiftAlarmsToo) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 100; ++i) ASSERT_FALSE(detector.Observe(50.0));
  bool alarmed = false;
  for (int i = 0; i < 5 && !alarmed; ++i) alarmed = detector.Observe(40.0);
  EXPECT_TRUE(alarmed);
}

TEST(PageHinkleyTest, WarmupSuppressesEarlyAlarms) {
  PageHinkleyDetector::Options options;
  options.warmup = 50;
  PageHinkleyDetector detector(options);
  // A violent change inside the warmup window must not alarm.
  for (int i = 0; i < 25; ++i) EXPECT_FALSE(detector.Observe(1.0));
  for (int i = 0; i < 25; ++i) EXPECT_FALSE(detector.Observe(100.0));
  EXPECT_FALSE(detector.alarmed());
}

TEST(PageHinkleyTest, NonFiniteObservationsIgnored) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 60; ++i) detector.Observe(2.0);
  size_t count = detector.count();
  EXPECT_FALSE(detector.Observe(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(detector.Observe(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(detector.count(), count);
  EXPECT_TRUE(std::isfinite(detector.mean()));
}

TEST(PageHinkleyTest, ResetStartsFreshRegime) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 100; ++i) detector.Observe(5.0);
  for (int i = 0; i < 5 && !detector.alarmed(); ++i) detector.Observe(50.0);
  ASSERT_TRUE(detector.alarmed());
  detector.Reset();
  EXPECT_FALSE(detector.alarmed());
  EXPECT_EQ(detector.count(), 0u);
  // The post-drift level is the new baseline after a reset.
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(detector.Observe(50.0));
}

TEST(PageHinkleyTest, SerializeRestoreRoundTrip) {
  PageHinkleyDetector a;
  for (int i = 0; i < 80; ++i) a.Observe(3.0 + 0.1 * (i % 5));

  PageHinkleyDetector b;
  ASSERT_TRUE(b.RestoreState(a.SerializeState()).ok());
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(a.Observe(8.0), b.Observe(8.0)) << "observation " << i;
  }
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  EXPECT_FALSE(b.RestoreState("garbage").ok());
}

}  // namespace
}  // namespace kea::ml
