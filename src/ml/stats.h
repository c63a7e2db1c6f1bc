#ifndef KEA_ML_STATS_H_
#define KEA_ML_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace kea::ml {

/// Descriptive summary of a sample.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  ///< Unbiased (n-1) sample variance.
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes the descriptive summary; returns InvalidArgument for an empty
/// sample.
StatusOr<Summary> Summarize(const std::vector<double>& sample);

/// Arithmetic mean; returns 0 for an empty sample.
double Mean(const std::vector<double>& sample);

/// Unbiased sample variance; returns 0 for samples of size < 2.
double Variance(const std::vector<double>& sample);

/// Linear-interpolation quantile, q in [0, 1]: the value at position
/// q * (n - 1) of the sorted sample. Returns InvalidArgument for an empty
/// sample, q outside [0, 1] or a NaN in the sample. q=0.5 is the median.
/// Selects in the sample's own storage: a sample with no sign bit set takes
/// the radix select of MedianAbs, which gives the bits nth_element gives;
/// any other sample takes nth_element.
StatusOr<double> Quantile(std::vector<double> sample, double q);

/// Equal-width histogram over [lo, hi] with `bins` buckets; values outside
/// the range are clamped into the edge buckets.
struct Histogram {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<size_t> counts;

  /// Bucket center of bin i.
  double BinCenter(size_t i) const;
};

/// Builds a histogram. Returns InvalidArgument if bins == 0 or hi <= lo.
StatusOr<Histogram> MakeHistogram(const std::vector<double>& sample, double lo,
                                  double hi, size_t bins);

/// Result of a two-sample t-test.
struct TTestResult {
  double t_statistic = 0.0;
  double degrees_of_freedom = 0.0;
  double p_value = 1.0;        ///< Two-sided p-value.
  double mean_difference = 0.0;  ///< mean(a) - mean(b).
  bool significant_at_05 = false;
};

/// Student's two-sample t-test with pooled variance (assumes equal variances).
/// This is the test the paper uses for before/after comparisons (§5.2.2, §7).
/// Requires both samples to have >= 2 observations.
StatusOr<TTestResult> StudentTTest(const std::vector<double>& a,
                                   const std::vector<double>& b);

/// Welch's t-test (unequal variances) with Welch-Satterthwaite dof.
StatusOr<TTestResult> WelchTTest(const std::vector<double>& a,
                                 const std::vector<double>& b);

/// CDF of the Student-t distribution with `dof` degrees of freedom, via the
/// regularized incomplete beta function.
double StudentTCdf(double t, double dof);

/// Regularized incomplete beta function I_x(a, b), continued-fraction
/// evaluation (Lentz's algorithm).
double RegularizedIncompleteBeta(double a, double b, double x);

/// Pearson correlation coefficient; returns InvalidArgument on size mismatch
/// or fewer than 2 observations, FailedPrecondition if either sample is
/// constant.
StatusOr<double> PearsonCorrelation(const std::vector<double>& x,
                                    const std::vector<double>& y);

/// Two-sided Page-Hinkley change-point detector over a scalar stream — the
/// sequential test behind the telemetry drift monitor (DESIGN.md "fleet fault
/// model & self-healing loop"). Observations are standardized against the
/// stream's own running mean/stddev (Welford), so thresholds are in sigma
/// units and one parameterization works for utilization fractions and
/// machine counts alike. Tracks the cumulative standardized deviation in
/// both directions and alarms when either drifts `lambda` past its running
/// extremum — a sustained mean shift fires, symmetric oscillation (diurnal
/// load) does not.
///
/// Zero-variance streams are explicitly guarded: the standardization divisor
/// is max(stddev, min_stddev), so a constant stream contributes exactly zero
/// drift (never NaN) while a later jump off the constant still alarms.
class PageHinkleyDetector {
 public:
  struct Options {
    /// Drift tolerance per observation, in stddev units. Deviations smaller
    /// than this never accumulate. Hourly telemetry is strongly
    /// autocorrelated (diurnal load), so this must exceed the per-hour gain
    /// of one half-cycle divided by its length or clean days will alarm;
    /// 0.25 drains a symmetric daily swing while a sustained +1-sigma shift
    /// still nets +0.75 per hour.
    double delta = 0.25;
    /// Alarm threshold on the cumulative drift, in stddev units. With
    /// delta = 0.25 a +1-sigma mean shift trips in about a day.
    double lambda = 18.0;
    /// Observations before alarms may fire (running stats settle first).
    int warmup = 48;
    /// Floor on the standardization divisor (the division-by-zero guard).
    double min_stddev = 1e-9;
    /// Cap on a single standardized deviation so one jump off a
    /// zero-variance stream cannot overflow the accumulators.
    double max_z = 1e6;
  };

  PageHinkleyDetector() : PageHinkleyDetector(Options()) {}
  explicit PageHinkleyDetector(const Options& options) : options_(options) {}

  /// Feeds one observation; returns true when a change point is detected.
  /// Non-finite observations are ignored (they are the telemetry pipeline's
  /// problem, not the detector's). After an alarm the detector keeps
  /// accumulating; call Reset() to start a fresh regime.
  bool Observe(double x);

  /// Forgets everything — running stats and drift accumulators. Used after a
  /// model refit: the post-drift regime is the new normal.
  void Reset();

  size_t count() const { return count_; }
  double mean() const { return mean_; }
  double stddev() const;
  /// Largest cumulative drift currently held in either direction.
  double drift_magnitude() const;
  bool alarmed() const { return alarmed_; }

  /// Bit-exact codec for checkpoint/resume.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  /// The state archive's field list (common/snapshot.h); options are
  /// construction-time. Inline: the drift detector nests it.
  template <typename Ar>
  friend void Persist(Ar& ar, PageHinkleyDetector& d) {
    ar(d.count_, d.mean_, d.m2_, d.up_sum_, d.up_min_, d.down_sum_,
       d.down_max_, d.alarmed_);
  }

  Options options_;
  // Welford running stats.
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  // Cumulative standardized deviations and their running extrema.
  double up_sum_ = 0.0;
  double up_min_ = 0.0;
  double down_sum_ = 0.0;
  double down_max_ = 0.0;
  bool alarmed_ = false;
};

}  // namespace kea::ml

#endif  // KEA_ML_STATS_H_
