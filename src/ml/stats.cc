#include "ml/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/snapshot.h"
#include "ml/radix_select.h"

namespace kea::ml {

namespace {

/// Log of the gamma function (Lanczos approximation).
double LogGamma(double x) {
  static const double kCoefficients[6] = {76.18009172947146,  -86.50532032941677,
                                          24.01409824083091,  -1.231739572450155,
                                          0.1208650973866179e-2, -0.5395239384953e-5};
  double y = x;
  double tmp = x + 5.5;
  tmp -= (x + 0.5) * std::log(tmp);
  double series = 1.000000000190015;
  for (double c : kCoefficients) {
    y += 1.0;
    series += c / y;
  }
  return -tmp + std::log(2.5066282746310005 * series / x);
}

/// Continued fraction for the incomplete beta function (Numerical Recipes
/// style modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIterations = 300;
  constexpr double kEpsilon = 3e-14;
  constexpr double kTiny = 1e-300;

  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEpsilon) break;
  }
  return h;
}

TTestResult FinishTTest(double t, double dof, double mean_diff) {
  TTestResult result;
  result.t_statistic = t;
  result.degrees_of_freedom = dof;
  result.mean_difference = mean_diff;
  // Two-sided p-value.
  double cdf = StudentTCdf(std::fabs(t), dof);
  result.p_value = 2.0 * (1.0 - cdf);
  result.p_value = std::clamp(result.p_value, 0.0, 1.0);
  result.significant_at_05 = result.p_value < 0.05;
  return result;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_beta = LogGamma(a + b) - LogGamma(a) - LogGamma(b) +
                   a * std::log(x) + b * std::log(1.0 - x);
  double front = std::exp(ln_beta);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTCdf(double t, double dof) {
  if (dof <= 0.0) return 0.5;
  double x = dof / (dof + t * t);
  double tail = 0.5 * RegularizedIncompleteBeta(dof / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

StatusOr<Summary> Summarize(const std::vector<double>& sample) {
  if (sample.empty()) return Status::InvalidArgument("empty sample");
  Summary s;
  s.count = sample.size();
  s.min = sample.front();
  s.max = sample.front();
  double sum = 0.0;
  for (double v : sample) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / static_cast<double>(sample.size());
  double sq = 0.0;
  for (double v : sample) {
    double d = v - s.mean;
    sq += d * d;
  }
  s.variance = sample.size() > 1 ? sq / static_cast<double>(sample.size() - 1) : 0.0;
  s.stddev = std::sqrt(s.variance);
  return s;
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return 0.0;
  double sum = 0.0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

double Variance(const std::vector<double>& sample) {
  if (sample.size() < 2) return 0.0;
  double mean = Mean(sample);
  double sq = 0.0;
  for (double v : sample) {
    double d = v - mean;
    sq += d * d;
  }
  return sq / static_cast<double>(sample.size() - 1);
}

StatusOr<double> Quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return Status::InvalidArgument("empty sample");
  if (!(q >= 0.0 && q <= 1.0)) return Status::InvalidArgument("quantile outside [0, 1]");
  const size_t n = sample.size();
  double pos = q * static_cast<double>(n - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, n - 1);
  double frac = pos - static_cast<double>(lo);
  // One pass refuses NaN, which has no rank, ORs the sign bits and counts
  // each key's first digit for the radix select.
  internal::DigitCounts counts{};
  uint64_t bits = 0;
  bool has_nan = false;
  for (double v : sample) {
    const uint64_t key = internal::SelectKey(v);
    has_nan |= std::isnan(v);
    bits |= key;
    ++counts[(key >> internal::kTopShift) & (counts.size() - 1)];
  }
  if (has_nan) return Status::InvalidArgument("NaN in quantile sample");
  double lo_value = 0.0, hi_value = 0.0;
  if (bits >> 63 == 0 && hi > lo) {
    // No sign bit set: the keys' unsigned order is the values' order, and
    // equal values have equal bits (no -0.0), so the radix select's ranks
    // lo and lo + 1 are the values nth_element puts there, bit for bit.
    const auto [lower, upper] = internal::SelectMiddle(sample.data(), n, hi, counts);
    lo_value = std::bit_cast<double>(lower);
    hi_value = std::bit_cast<double>(upper);
  } else {
    // The lo-th and hi-th order statistics by selection, O(n): after
    // nth_element everything right of lo is >= it, so the next order
    // statistic is the smallest of that tail.
    const auto lo_it = sample.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(sample.begin(), lo_it, sample.end());
    lo_value = *lo_it;
    hi_value = hi == lo ? lo_value : *std::min_element(lo_it + 1, sample.end());
  }
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double Histogram::BinCenter(size_t i) const {
  double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + (static_cast<double>(i) + 0.5) * width;
}

StatusOr<Histogram> MakeHistogram(const std::vector<double>& sample, double lo,
                                  double hi, size_t bins) {
  if (bins == 0) return Status::InvalidArgument("histogram needs at least one bin");
  if (hi <= lo) return Status::InvalidArgument("histogram range must be non-empty");
  Histogram h;
  h.lo = lo;
  h.hi = hi;
  h.counts.assign(bins, 0);
  double width = (hi - lo) / static_cast<double>(bins);
  for (double v : sample) {
    double offset = (v - lo) / width;
    long bin = static_cast<long>(std::floor(offset));
    bin = std::clamp<long>(bin, 0, static_cast<long>(bins) - 1);
    ++h.counts[static_cast<size_t>(bin)];
  }
  return h;
}

StatusOr<TTestResult> StudentTTest(const std::vector<double>& a,
                                   const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) {
    return Status::InvalidArgument("t-test requires >= 2 observations per sample");
  }
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  double mean_a = Mean(a);
  double mean_b = Mean(b);
  double var_a = Variance(a);
  double var_b = Variance(b);
  double dof = na + nb - 2.0;
  double pooled = ((na - 1.0) * var_a + (nb - 1.0) * var_b) / dof;
  double se = std::sqrt(pooled * (1.0 / na + 1.0 / nb));
  if (se < 1e-300) {
    return Status::FailedPrecondition("zero variance in both samples");
  }
  return FinishTTest((mean_a - mean_b) / se, dof, mean_a - mean_b);
}

StatusOr<TTestResult> WelchTTest(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) {
    return Status::InvalidArgument("t-test requires >= 2 observations per sample");
  }
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  double mean_a = Mean(a);
  double mean_b = Mean(b);
  double sa = Variance(a) / na;
  double sb = Variance(b) / nb;
  double se2 = sa + sb;
  if (se2 < 1e-300) {
    return Status::FailedPrecondition("zero variance in both samples");
  }
  double dof = se2 * se2 /
               (sa * sa / (na - 1.0) + sb * sb / (nb - 1.0));
  return FinishTTest((mean_a - mean_b) / std::sqrt(se2), dof, mean_a - mean_b);
}

StatusOr<double> PearsonCorrelation(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  if (x.size() != y.size()) return Status::InvalidArgument("size mismatch");
  if (x.size() < 2) return Status::InvalidArgument("need >= 2 observations");
  double mx = Mean(x);
  double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx < 1e-300 || syy < 1e-300) {
    return Status::FailedPrecondition("constant sample in correlation");
  }
  return sxy / std::sqrt(sxx * syy);
}

bool PageHinkleyDetector::Observe(double x) {
  if (!std::isfinite(x)) return false;
  ++count_;
  double delta_mean = x - mean_;
  mean_ += delta_mean / static_cast<double>(count_);
  m2_ += delta_mean * (x - mean_);

  // Standardize against the stats *before* this point settled; the
  // min_stddev floor is the zero-variance guard — a constant stream yields
  // z == 0 exactly, never NaN.
  double sd = stddev();
  double z = (x - mean_) / std::max(sd, options_.min_stddev);
  z = std::clamp(z, -options_.max_z, options_.max_z);

  up_sum_ += z - options_.delta;
  up_min_ = std::min(up_min_, up_sum_);
  down_sum_ += z + options_.delta;
  down_max_ = std::max(down_max_, down_sum_);

  if (count_ <= static_cast<size_t>(std::max(options_.warmup, 1))) {
    return false;
  }
  bool alarm = (up_sum_ - up_min_ > options_.lambda) ||
               (down_max_ - down_sum_ > options_.lambda);
  if (alarm) alarmed_ = true;
  return alarm;
}

void PageHinkleyDetector::Reset() {
  count_ = 0;
  mean_ = 0.0;
  m2_ = 0.0;
  up_sum_ = 0.0;
  up_min_ = 0.0;
  down_sum_ = 0.0;
  down_max_ = 0.0;
  alarmed_ = false;
}

double PageHinkleyDetector::stddev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(std::max(0.0, m2_ / static_cast<double>(count_ - 1)));
}

double PageHinkleyDetector::drift_magnitude() const {
  return std::max(up_sum_ - up_min_, down_max_ - down_sum_);
}

std::string PageHinkleyDetector::SerializeState() const { return Encode(*this); }

Status PageHinkleyDetector::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::ml
