#include "ml/regression.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "ml/radix_select.h"

namespace kea::ml {

namespace {

/// ValidateDataset for the one-feature design read from columns.
Status ValidateLineShape(std::span<const double> x, std::span<const double> y) {
  if (y.empty()) return Status::InvalidArgument("empty dataset");
  if (x.size() != y.size()) {
    return Status::InvalidArgument("feature/target row count mismatch");
  }
  if (y.size() < 2) return Status::InvalidArgument("fewer observations than parameters");
  return Status::OK();
}

/// ValidateFitData for the one-feature design read from columns.
Status ValidateLine(std::span<const double> x, std::span<const double> y) {
  KEA_RETURN_IF_ERROR(ValidateLineShape(x, y));
  for (size_t r = 0; r < y.size(); ++r) {
    if (!std::isfinite(x[r])) {
      return Status::InvalidArgument("non-finite feature in row " + std::to_string(r));
    }
    if (!std::isfinite(y[r])) {
      return Status::InvalidArgument("non-finite target in row " + std::to_string(r));
    }
  }
  return Status::OK();
}

Status ValidateDataset(const Dataset& data) {
  if (data.y.empty()) return Status::InvalidArgument("empty dataset");
  if (data.x.rows() != data.y.size()) {
    return Status::InvalidArgument("feature/target row count mismatch");
  }
  if (data.x.cols() == 0) return Status::InvalidArgument("dataset has no features");
  if (data.y.size() < data.x.cols() + 1) {
    return Status::InvalidArgument("fewer observations than parameters");
  }
  return Status::OK();
}

/// ValidateDataset, and every entry finite: a NaN or infinite entry makes
/// every fit non-finite, and a NaN residual has no rank in MedianAbs.
Status ValidateFitData(const Dataset& data) {
  KEA_RETURN_IF_ERROR(ValidateDataset(data));
  for (size_t r = 0; r < data.x.rows(); ++r) {
    for (size_t c = 0; c < data.x.cols(); ++c) {
      if (!std::isfinite(data.x(r, c))) {
        return Status::InvalidArgument("non-finite feature in row " + std::to_string(r));
      }
    }
    if (!std::isfinite(data.y[r])) {
      return Status::InvalidArgument("non-finite target in row " + std::to_string(r));
    }
  }
  return Status::OK();
}

Status ValidateWeights(const Dataset& data, const Vector& weights) {
  if (weights.size() != data.y.size()) {
    return Status::InvalidArgument("weight count mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("negative observation weight");
    if (!std::isfinite(w)) return Status::InvalidArgument("non-finite observation weight");
  }
  return Status::OK();
}

/// Solves the normal equations whose upper triangle `gram` holds, with the
/// ridge term added to the coefficients' diagonal after the sums (the
/// intercept, index 0, stays free): Cholesky, with pivoted Gaussian
/// elimination as the fallback for semi-definite systems.
StatusOr<LinearModel> SolveNormalEquations(Matrix gram, Vector rhs, double l2) {
  const size_t p = rhs.size();
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }
  if (l2 > 0.0) {
    for (size_t i = 1; i < p; ++i) gram(i, i) += l2;
  }
  auto chol = SolveCholesky(gram, rhs);
  Vector beta;
  if (chol.ok()) {
    beta = std::move(chol).value();
  } else {
    KEA_ASSIGN_OR_RETURN(beta, SolveLinearSystem(std::move(gram), std::move(rhs)));
  }
  Vector coef(beta.begin() + 1, beta.end());
  return LinearModel(beta[0], std::move(coef));
}

/// The normal equations of the two-column design [1 | x], whose row r is
/// sqrt(w_r) [1, x_r], in five running sums. Each sum adds its entry's
/// products in the order Matrix::Gram() / TransposedMultiply() add them over
/// the materialized design -- rows ascending, skipping a row whose
/// multiplier (the row entry for Gram, the scaled target for the right-hand
/// side) is zero -- so the solution is bit-identical to the materialized
/// form. Selecting +0.0 instead of branching is the same skip: a sum that
/// starts at +0.0 can never be -0.0, and adding +0.0 leaves any other value
/// unchanged.
struct LineSums {
  double g00 = 0.0, g01 = 0.0, g11 = 0.0;  ///< Upper triangle of Z'Z.
  double r0 = 0.0, r1 = 0.0;               ///< Z'(sqrt(w) y).

  /// Adds the row of weight w.
  void Add(double x, double y, double w) {
    // sqrt(1.0) is exactly 1.0, so a unit weight skips the root.
    AddRoot(x, y, w == 1.0 ? 1.0 : std::sqrt(w));
  }

  /// Adds the row whose weight's root is s.
  void AddRoot(double x, double y, double s) {
    const double xs = x * s;
    const double ys = y * s;
    g00 += s == 0.0 ? 0.0 : s * s;
    g01 += s == 0.0 ? 0.0 : s * xs;
    g11 += xs == 0.0 ? 0.0 : xs * xs;
    r0 += ys == 0.0 ? 0.0 : ys * s;
    r1 += ys == 0.0 ? 0.0 : ys * xs;
  }

  StatusOr<LinearModel> Solve(double l2) const {
    Matrix gram(2, 2, 0.0);
    gram(0, 0) = g00;
    gram(0, 1) = g01;
    gram(1, 1) = g11;
    return SolveNormalEquations(std::move(gram), {r0, r1}, l2);
  }
};

/// The line's least-squares solve: every row of weight 1.
StatusOr<LinearModel> SolveLine(std::span<const double> x, std::span<const double> y,
                                double l2) {
  LineSums sums;
  for (size_t r = 0; r < y.size(); ++r) sums.AddRoot(x[r], y[r], 1.0);
  return sums.Solve(l2);
}

/// Rows of the design scaled per block of SolveWeighted.
constexpr size_t kBlockRows = 64;

/// sum + the products u[k] * v[k] over k < m, in order, skipping every k
/// with u[k] == 0 -- the skip rule of Matrix::Gram (on the row entry) and
/// Matrix::TransposedMultiply (on the vector entry), selected as in LineSums.
double AccumulateNonZero(const double* u, const double* v, size_t m, double sum) {
  for (size_t k = 0; k < m; ++k) sum += u[k] == 0.0 ? 0.0 : u[k] * v[k];
  return sum;
}

/// Weighted least squares on the design [1 | x] with the ridge term on the
/// coefficients only: solves (Z'Z + l2 I') beta = Z'(sqrt(w) y), where row r
/// of Z is sqrt(w_r) [1, x_r]. Z is never materialized. One feature takes
/// LineSums; wider designs scale rows a block at a time into `block`
/// (caller-owned scratch), column by column, and each entry of the normal
/// equations adds the block's products to its running sum. Either way every
/// entry sums the operands of the materialized Gram() / TransposedMultiply()
/// in their order -- rows ascending, the same zero skips -- and the ridge
/// term is added after the sums, so the solution is bit-identical to the
/// materialized form.
StatusOr<LinearModel> SolveWeighted(const Dataset& data, const Vector& weights,
                                    double l2, Vector* block) {
  const size_t n = data.y.size();
  if (data.x.cols() == 1) {
    LineSums sums;
    for (size_t r = 0; r < n; ++r) sums.Add(data.x(r, 0), data.y[r], weights[r]);
    return sums.Solve(l2);
  }
  const size_t p = data.x.cols() + 1;
  Matrix gram(p, p, 0.0);
  Vector rhs(p, 0.0);
  // Column c < p of the block holds Z(r, c); column p the scaled targets.
  block->resize(kBlockRows * (p + 1));
  auto column = [&](size_t c) { return block->data() + c * kBlockRows; };
  for (size_t r0 = 0; r0 < n; r0 += kBlockRows) {
    const size_t m = std::min(kBlockRows, n - r0);
    for (size_t k = 0; k < m; ++k) {
      const double s = std::sqrt(weights[r0 + k]);
      column(0)[k] = s;
      for (size_t c = 1; c < p; ++c) column(c)[k] = data.x(r0 + k, c - 1) * s;
      column(p)[k] = data.y[r0 + k] * s;
    }
    for (size_t i = 0; i < p; ++i) {
      for (size_t j = i; j < p; ++j) {
        gram(i, j) = AccumulateNonZero(column(i), column(j), m, gram(i, j));
      }
      rhs[i] = AccumulateNonZero(column(p), column(i), m, rhs[i]);
    }
  }
  return SolveNormalEquations(std::move(gram), std::move(rhs), l2);
}

/// The select key of |v|: fabs clears the sign (-0.0 becomes +0.0), and the
/// bit patterns of non-negative non-NaN doubles are ordered as their values
/// are.
uint64_t AbsKey(double v) { return std::bit_cast<uint64_t>(std::fabs(v)); }

/// MedianAbs in two steps, so that a caller can key each value as it
/// computes it: Reset, Put every value, then Median. Or in one call, with a
/// guess of the median: MedianNear.
class AbsMedian {
 public:
  void Reset(size_t n) {
    Reserve(n);
    n_ = n;
    counts_.fill(0);
  }

  void Put(size_t i, double v) {
    const uint64_t key = AbsKey(v);
    keys_[i] = key;
    ++counts_[key >> internal::kTopShift];
  }

  /// Consumes the keys; Reset before the next use.
  double Median() {
    if (n_ == 1) return std::bit_cast<double>(keys_[0]);
    const auto [lower, upper] = internal::SelectMiddle(keys_.get(), n_, n_ / 2, counts_);
    return Middle(n_, lower, upper);
  }

  /// MedianAbs of values[0, n). When `near` is within a sixteenth of it,
  /// one pass keeps the keys in that window, counts the keys below it, and
  /// selects the middle ranks among the kept keys: rank j of all n keys is
  /// rank j - below of the window when the window holds it, since every key
  /// below the window is smaller and every key above it is larger. Any
  /// other case selects over all n keys.
  double MedianNear(const double* values, size_t n, double near) {
    Reserve(n);
    const size_t k = n / 2;
    if (near > 0.0 && std::isfinite(near)) {
      const uint64_t lo = AbsKey(near - near / 16);
      const uint64_t width = AbsKey(near + near / 16) - lo;
      size_t below = 0, kept = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t key = AbsKey(values[i]);
        below += key < lo;
        keys_[kept] = key;
        kept += key - lo < width;
      }
      if (below < k && k < below + kept) {
        uint64_t* window = keys_.get();
        const size_t j = k - below;
        std::nth_element(window, window + j, window + kept);
        return Middle(n, *std::max_element(window, window + j), window[j]);
      }
    }
    Reset(n);
    for (size_t i = 0; i < n; ++i) Put(i, values[i]);
    return Median();
  }

 private:
  void Reserve(size_t n) {
    // Every key is written before it is read, so the buffer is not zeroed.
    if (capacity_ < n) {
      keys_ = std::make_unique_for_overwrite<uint64_t[]>(n);
      capacity_ = n;
    }
  }

  /// The median of n values from the keys of ranks n/2 - 1 and n/2.
  static double Middle(size_t n, uint64_t lower, uint64_t upper) {
    const double m = std::bit_cast<double>(upper);
    return n % 2 == 0 ? 0.5 * (m + std::bit_cast<double>(lower)) : m;
  }

  std::unique_ptr<uint64_t[]> keys_;
  size_t capacity_ = 0, n_ = 0;
  internal::DigitCounts counts_{};
};

/// The least select key (AbsKey) of an outlier: a residual r is an outlier,
/// !(fl(|r| / scale) <= delta), exactly when AbsKey(r) >= the bound. For a
/// fixed scale > 0, correctly rounded division is monotone in |r|, and keys
/// are ordered as the values, so the inliers' keys are a prefix of the keys
/// [0, AbsKey(+inf)]. (+inf / +inf is NaN, an outlier, and +inf's key is the
/// largest.) The search gallops out from the key of delta * scale, which
/// lies within a few ulps of the bound, then bisects: a handful of
/// divisions per iteration, whatever the row count.
uint64_t OutlierKeyBound(double scale, double delta) {
  const uint64_t inf_key = AbsKey(std::numeric_limits<double>::infinity());
  const auto inlier = [scale, delta](uint64_t key) {
    return std::bit_cast<double>(key) / scale <= delta;
  };
  if (!inlier(0)) return 0;
  if (inlier(inf_key)) return inf_key + 1;
  uint64_t lo = 0, hi = inf_key;  // An inlier's key and an outlier's.
  const uint64_t guess = std::min(std::bit_cast<uint64_t>(delta * scale), inf_key);
  if (inlier(guess)) {
    lo = guess;
    for (uint64_t step = 1; hi - lo > step; step *= 2) {
      if (!inlier(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  } else {
    hi = guess;
    for (uint64_t step = 1; hi - lo > step; step *= 2) {
      if (inlier(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  }
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (inlier(mid) ? lo : hi) = mid;
  }
  return hi;
}

/// With finite data a fitted model is non-finite only when the normal
/// equations overflowed. No fit returns such a model, and IRLS stops at one:
/// it ranks residuals, and a NaN has no rank.
Status CheckFinite(const LinearModel& model) {
  bool finite = std::isfinite(model.intercept());
  for (double c : model.coefficients()) finite = finite && std::isfinite(c);
  if (finite) return Status::OK();
  return Status::FailedPrecondition(
      "fit diverged to a non-finite model (the data overflow the normal "
      "equations)");
}

}  // namespace

double MedianAbs(const Vector& values) {
  AbsMedian median;
  median.Reset(values.size());
  for (size_t i = 0; i < values.size(); ++i) median.Put(i, values[i]);
  return median.Median();
}

double LinearModel::Predict(const Vector& features) const {
  assert(features.size() == coefficients_.size());
  return intercept_ + Dot(features, coefficients_);
}

double LinearModel::Predict1D(double x) const {
  assert(coefficients_.size() == 1);
  return intercept_ + coefficients_[0] * x;
}

StatusOr<Vector> LinearModel::PredictBatch(const Matrix& features) const {
  if (features.cols() != coefficients_.size()) {
    return Status::InvalidArgument("feature width mismatch in PredictBatch");
  }
  Vector out(features.rows(), 0.0);
  for (size_t r = 0; r < features.rows(); ++r) {
    double sum = intercept_;
    for (size_t c = 0; c < features.cols(); ++c) {
      sum += features(r, c) * coefficients_[c];
    }
    out[r] = sum;
  }
  return out;
}

StatusOr<double> LinearModel::Invert1D(double y) const {
  if (coefficients_.size() != 1) {
    return Status::FailedPrecondition("Invert1D requires a 1-D model");
  }
  if (std::fabs(coefficients_[0]) < 1e-12) {
    return Status::FailedPrecondition("cannot invert a flat model");
  }
  return (y - intercept_) / coefficients_[0];
}

StatusOr<LinearModel> LinearRegressor::Fit(const Dataset& data) const {
  if (data.x.cols() == 1) return FitLine(std::span(data.x.data(), data.x.rows()), data.y);
  Vector ones(data.y.size(), 1.0);
  return FitWeighted(data, ones);
}

StatusOr<LinearModel> LinearRegressor::FitLine(std::span<const double> x,
                                               std::span<const double> y) const {
  KEA_RETURN_IF_ERROR(ValidateLine(x, y));
  KEA_ASSIGN_OR_RETURN(LinearModel model, SolveLine(x, y, l2_));
  KEA_RETURN_IF_ERROR(CheckFinite(model));
  return model;
}

StatusOr<LinearModel> LinearRegressor::FitWeighted(const Dataset& data,
                                                   const Vector& weights) const {
  KEA_RETURN_IF_ERROR(ValidateFitData(data));
  KEA_RETURN_IF_ERROR(ValidateWeights(data, weights));
  Vector block;
  KEA_ASSIGN_OR_RETURN(LinearModel model, SolveWeighted(data, weights, l2_, &block));
  KEA_RETURN_IF_ERROR(CheckFinite(model));
  return model;
}

StatusOr<LinearModel> HuberRegressor::Fit(const Dataset& data, int* iterations) const {
  if (data.x.cols() == 1) {
    FitStats stats;
    KEA_ASSIGN_OR_RETURN(LinearModel model,
                         FitLine(std::span(data.x.data(), data.x.rows()), data.y, &stats));
    if (iterations != nullptr) *iterations = stats.iterations;
    return model;
  }
  KEA_RETURN_IF_ERROR(ValidateFitData(data));
  const size_t n = data.y.size();
  const size_t d = data.x.cols();
  const double delta = options_.delta;
  // One set of buffers serves every IRLS iteration.
  Vector weights(n, 1.0), residuals(n), block;
  AbsMedian median;
  KEA_ASSIGN_OR_RETURN(LinearModel model,
                       SolveWeighted(data, weights, options_.l2, &block));

  int reweighted = 0;  // Reweighted solves run.
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    KEA_RETURN_IF_ERROR(CheckFinite(model));
    // Residuals of the current model, summed exactly as LinearModel::Predict.
    // The robust scale's select keys each one as it is computed.
    const Vector& coef = model.coefficients();
    median.Reset(n);
    for (size_t r = 0; r < n; ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < d; ++c) dot += data.x(r, c) * coef[c];
      residuals[r] = data.y[r] - (model.intercept() + dot);
      median.Put(r, residuals[r]);
    }
    // Robust scale: MAD / 0.6745 (consistent with sigma under normality).
    double scale = median.Median() / 0.6745;
    if (scale < 1e-12) scale = 1e-12;

    double max_weight_change = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double z = std::fabs(residuals[r]) / scale;
      const double w = z <= delta ? 1.0 : delta / z;
      max_weight_change = std::max(max_weight_change, std::fabs(w - weights[r]));
      weights[r] = w;
    }
    KEA_ASSIGN_OR_RETURN(model, SolveWeighted(data, weights, options_.l2, &block));
    ++reweighted;
    if (max_weight_change < options_.tolerance) break;
  }
  KEA_RETURN_IF_ERROR(CheckFinite(model));
  if (iterations != nullptr) *iterations = reweighted;
  return model;
}

StatusOr<LinearModel> HuberRegressor::FitLine(std::span<const double> x,
                                              std::span<const double> y,
                                              FitStats* stats) const {
  KEA_RETURN_IF_ERROR(ValidateLine(x, y));
  const size_t n = y.size();
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("more rows than the line kernel indexes");
  }
  const double delta = options_.delta;
  KEA_ASSIGN_OR_RETURN(LinearModel model, SolveLine(x, y, options_.l2));
  // The fit's per-row state. Every weight and root starts at 1; the other
  // buffers are written before they are read, so they are not zeroed. Rows
  // outside outliers[0, outlier_count), the last iteration's outliers, keep
  // weight and root 1.
  Vector weights(n, 1.0), roots(n, 1.0);
  const auto residuals = std::make_unique_for_overwrite<double[]>(n);
  auto outliers = std::make_unique_for_overwrite<uint32_t[]>(n);
  auto next_outliers = std::make_unique_for_overwrite<uint32_t[]>(n);
  size_t outlier_count = 0;
  AbsMedian median;
  double mad = 0.0;
  FitStats done;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    KEA_RETURN_IF_ERROR(CheckFinite(model));
    // Residuals of the current model, summed exactly as LinearModel::Predict
    // sums one feature.
    const double b0 = model.intercept(), b1 = model.coefficients()[0];
    for (size_t r = 0; r < n; ++r) {
      double dot = 0.0;
      dot += x[r] * b1;
      residuals[r] = y[r] - (b0 + dot);
    }
    // Robust scale: MAD / 0.6745 (consistent with sigma under normality).
    // After the first solve the MAD moves by well under 1% an iteration, so
    // the last one guesses the next.
    mad = median.MedianNear(residuals.get(), n, mad);
    double scale = mad / 0.6745;
    if (scale < 1e-12) scale = 1e-12;
    const uint64_t bound = OutlierKeyBound(scale, delta);

    // A row that is an inlier now and was one before keeps weight and root 1,
    // and its weight change, 0, leaves the maximum as it is. The last
    // iteration's outliers that are inliers now go back to 1; the rows that
    // are outliers now get weight delta / z, as the loop of Fit weighs them.
    double max_weight_change = 0.0;
    for (size_t i = 0; i < outlier_count; ++i) {
      const uint32_t r = outliers[i];
      if (AbsKey(residuals[r]) >= bound) continue;
      max_weight_change = std::max(max_weight_change, std::fabs(1.0 - weights[r]));
      weights[r] = 1.0;
      roots[r] = 1.0;
      ++done.rows_reweighted;
    }
    outlier_count = 0;
    for (size_t r = 0; r < n; ++r) {
      next_outliers[outlier_count] = static_cast<uint32_t>(r);
      outlier_count += AbsKey(residuals[r]) >= bound;
    }
    std::swap(outliers, next_outliers);
    for (size_t i = 0; i < outlier_count; ++i) {
      const uint32_t r = outliers[i];
      const double w = delta / (std::fabs(residuals[r]) / scale);
      max_weight_change = std::max(max_weight_change, std::fabs(w - weights[r]));
      weights[r] = w;
      roots[r] = std::sqrt(w);
    }
    done.rows_reweighted += outlier_count;

    LineSums sums;
    for (size_t r = 0; r < n; ++r) sums.AddRoot(x[r], y[r], roots[r]);
    KEA_ASSIGN_OR_RETURN(model, sums.Solve(options_.l2));
    ++done.iterations;
    if (max_weight_change < options_.tolerance) break;
  }
  KEA_RETURN_IF_ERROR(CheckFinite(model));
  if (stats != nullptr) *stats = done;
  return model;
}

namespace {

/// Goodness of fit of the predictions predict(i) of y[i].
template <typename Predict>
RegressionMetrics MetricsOf(std::span<const double> y, Predict predict) {
  double mean_y = 0.0;
  for (double v : y) mean_y += v;
  mean_y /= static_cast<double>(y.size());

  double ss_res = 0.0, ss_tot = 0.0, abs_sum = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    double e = y[i] - predict(i);
    ss_res += e * e;
    abs_sum += std::fabs(e);
    double d = y[i] - mean_y;
    ss_tot += d * d;
  }
  RegressionMetrics m;
  m.rmse = std::sqrt(ss_res / static_cast<double>(y.size()));
  m.mae = abs_sum / static_cast<double>(y.size());
  m.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : (ss_res == 0.0 ? 1.0 : 0.0);
  return m;
}

}  // namespace

StatusOr<RegressionMetrics> Evaluate(const LinearModel& model, const Dataset& data) {
  KEA_RETURN_IF_ERROR(ValidateDataset(data));
  KEA_ASSIGN_OR_RETURN(Vector pred, model.PredictBatch(data.x));
  return MetricsOf(data.y, [&pred](size_t i) { return pred[i]; });
}

StatusOr<RegressionMetrics> Evaluate(const LinearModel& model, std::span<const double> x,
                                     std::span<const double> y) {
  KEA_RETURN_IF_ERROR(ValidateLineShape(x, y));
  if (model.coefficients().size() != 1) {
    return Status::InvalidArgument("feature width mismatch in Evaluate");
  }
  // Each prediction summed as PredictBatch sums one feature.
  const double b0 = model.intercept(), b1 = model.coefficients()[0];
  return MetricsOf(y, [&](size_t i) { return b0 + x[i] * b1; });
}

Dataset MakeDataset1D(const Vector& x, const Vector& y) {
  assert(x.size() == y.size());
  Dataset d;
  d.x = Matrix(x.size(), 1);
  for (size_t i = 0; i < x.size(); ++i) d.x(i, 0) = x[i];
  d.y = y;
  return d;
}

}  // namespace kea::ml
