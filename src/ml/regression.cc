#include "ml/regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

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

LinearModel ModelFromSolution(const Vector& beta) {
  Vector coef(beta.begin() + 1, beta.end());
  return LinearModel(beta[0], std::move(coef));
}

Status ValidateWeights(const Dataset& data, const Vector& weights) {
  if (weights.size() != data.y.size()) {
    return Status::InvalidArgument("weight count mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) return Status::InvalidArgument("negative observation weight");
  }
  return Status::OK();
}

/// Rows of the design scaled per block of SolveWeighted.
constexpr size_t kBlockRows = 64;

/// sum + the products u[k] * v[k] over k < m, in order, skipping every k
/// with u[k] == 0 -- the skip rule of Matrix::Gram (on the row entry) and
/// Matrix::TransposedMultiply (on the vector entry). Selecting +0.0 instead
/// of branching is the same skip: a sum that starts at +0.0 can never be
/// -0.0, and adding +0.0 leaves any other value unchanged.
double AccumulateNonZero(const double* u, const double* v, size_t m, double sum) {
  for (size_t k = 0; k < m; ++k) sum += u[k] == 0.0 ? 0.0 : u[k] * v[k];
  return sum;
}

/// Weighted least squares on the design [1 | x] with the ridge term on the
/// coefficients only: solves (Z'Z + l2 I') beta = Z'(sqrt(w) y), where row r
/// of Z is sqrt(w_r) [1, x_r]. Z is never materialized: rows are scaled a
/// block at a time into `block` (caller-owned scratch), column by column,
/// and each entry of the normal equations adds the block's products to its
/// running sum. Every entry thus sums the operands of the materialized
/// Gram() / TransposedMultiply() in their order -- rows ascending, the same
/// zero skips -- and the ridge term is added after the sums, so the solution
/// is bit-identical to the materialized form.
StatusOr<LinearModel> SolveWeighted(const Dataset& data, const Vector& weights,
                                    double l2, Vector* block) {
  const size_t n = data.y.size();
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
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) gram(i, j) = gram(j, i);
  }
  // Regularize coefficients only; the intercept (index 0) stays free.
  if (l2 > 0.0) {
    for (size_t i = 1; i < p; ++i) gram(i, i) += l2;
  }

  auto chol = SolveCholesky(gram, rhs);
  if (chol.ok()) return ModelFromSolution(chol.value());
  // Fall back to pivoted Gaussian elimination for semi-definite cases.
  KEA_ASSIGN_OR_RETURN(Vector beta, SolveLinearSystem(std::move(gram), std::move(rhs)));
  return ModelFromSolution(beta);
}

/// Median of |values|, the robust residual scale (MAD); `scratch` is
/// caller-owned. For even sizes the lower middle is the largest element
/// left of the upper middle once nth_element has partitioned around it.
double MedianAbs(const Vector& values, Vector* scratch) {
  scratch->resize(values.size());
  for (size_t i = 0; i < values.size(); ++i) (*scratch)[i] = std::fabs(values[i]);
  const auto mid = scratch->begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(scratch->begin(), mid, scratch->end());
  double m = *mid;
  if (values.size() % 2 == 0) m = 0.5 * (m + *std::max_element(scratch->begin(), mid));
  return m;
}

}  // namespace

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
  KEA_RETURN_IF_ERROR(ValidateDataset(data));
  KEA_RETURN_IF_ERROR(ValidateWeights(data, weights));
  Vector block;
  return SolveWeighted(data, weights, l2_, &block);
}

StatusOr<LinearModel> HuberRegressor::Fit(const Dataset& data) const {
  KEA_RETURN_IF_ERROR(ValidateDataset(data));
  const size_t n = data.y.size();
  const size_t d = data.x.cols();
  // One set of buffers serves every IRLS iteration.
  Vector weights(n, 1.0), residuals(n), scratch;
  KEA_ASSIGN_OR_RETURN(LinearModel model,
                       SolveWeighted(data, weights, options_.l2, &scratch));

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Residuals of the current model, summed exactly as LinearModel::Predict.
    const Vector& coef = model.coefficients();
    for (size_t r = 0; r < n; ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < d; ++c) dot += data.x(r, c) * coef[c];
      residuals[r] = data.y[r] - (model.intercept() + dot);
    }
    // Robust scale: MAD / 0.6745 (consistent with sigma under normality).
    double scale = MedianAbs(residuals, &scratch) / 0.6745;
    if (scale < 1e-12) scale = 1e-12;

    double max_weight_change = 0.0;
    for (size_t r = 0; r < n; ++r) {
      double z = std::fabs(residuals[r]) / scale;
      double w = z <= options_.delta ? 1.0 : options_.delta / z;
      max_weight_change = std::max(max_weight_change, std::fabs(w - weights[r]));
      weights[r] = w;
    }
    KEA_ASSIGN_OR_RETURN(model, SolveWeighted(data, weights, options_.l2, &scratch));
    if (max_weight_change < options_.tolerance) break;
  }
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
