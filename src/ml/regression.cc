#include "ml/regression.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "ml/radix_select.h"

namespace kea::ml {

namespace {

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

  void Add(double x, double y, double w) {
    // sqrt(1.0) is exactly 1.0, so a unit weight skips the root.
    const double s = w == 1.0 ? 1.0 : std::sqrt(w);
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

/// MedianAbs in two steps, so that a caller can key each value as it
/// computes it: Reset, Put every value, then Median.
class AbsMedian {
 public:
  void Reset(size_t n) {
    keys_.resize(n);
    counts_.fill(0);
  }

  /// fabs clears the sign (-0.0 becomes +0.0), and the bit patterns of
  /// non-negative non-NaN doubles are ordered as their values are.
  void Put(size_t i, double v) {
    const uint64_t key = std::bit_cast<uint64_t>(std::fabs(v));
    keys_[i] = key;
    ++counts_[key >> internal::kTopShift];
  }

  /// Consumes the keys; Reset before the next use.
  double Median() {
    const size_t n = keys_.size();
    if (n == 1) return std::bit_cast<double>(keys_[0]);
    const auto [lower, upper] = internal::SelectMiddle(keys_.data(), n, n / 2, counts_);
    const double m = std::bit_cast<double>(upper);
    return n % 2 == 0 ? 0.5 * (m + std::bit_cast<double>(lower)) : m;
  }

 private:
  std::vector<uint64_t> keys_;
  internal::DigitCounts counts_{};
};

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
  Vector ones(data.y.size(), 1.0);
  return FitWeighted(data, ones);
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
    auto reweight = [&](size_t r) {
      const double z = std::fabs(residuals[r]) / scale;
      const double w = z <= delta ? 1.0 : delta / z;
      max_weight_change = std::max(max_weight_change, std::fabs(w - weights[r]));
      weights[r] = w;
      return w;
    };
    if (d == 1) {
      // The two-column design reweights and sums in one pass.
      LineSums sums;
      for (size_t r = 0; r < n; ++r) sums.Add(data.x(r, 0), data.y[r], reweight(r));
      KEA_ASSIGN_OR_RETURN(model, sums.Solve(options_.l2));
    } else {
      for (size_t r = 0; r < n; ++r) reweight(r);
      KEA_ASSIGN_OR_RETURN(model, SolveWeighted(data, weights, options_.l2, &block));
    }
    ++reweighted;
    if (max_weight_change < options_.tolerance) break;
  }
  KEA_RETURN_IF_ERROR(CheckFinite(model));
  if (iterations != nullptr) *iterations = reweighted;
  return model;
}

StatusOr<RegressionMetrics> Evaluate(const LinearModel& model, const Dataset& data) {
  KEA_RETURN_IF_ERROR(ValidateDataset(data));
  KEA_ASSIGN_OR_RETURN(Vector pred, model.PredictBatch(data.x));

  double mean_y = 0.0;
  for (double v : data.y) mean_y += v;
  mean_y /= static_cast<double>(data.y.size());

  double ss_res = 0.0, ss_tot = 0.0, abs_sum = 0.0;
  for (size_t i = 0; i < data.y.size(); ++i) {
    double e = data.y[i] - pred[i];
    ss_res += e * e;
    abs_sum += std::fabs(e);
    double d = data.y[i] - mean_y;
    ss_tot += d * d;
  }
  RegressionMetrics m;
  m.rmse = std::sqrt(ss_res / static_cast<double>(data.y.size()));
  m.mae = abs_sum / static_cast<double>(data.y.size());
  m.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : (ss_res == 0.0 ? 1.0 : 0.0);
  return m;
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
