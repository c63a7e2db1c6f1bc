// Test-only references for the streamed regression kernels: the
// materialized weighted least squares, the nth_element median of absolute
// values and the IRLS loop built on them. The design [1 | x] scaled by
// sqrt(w) is built in full and solved through Matrix::Gram() /
// TransposedMultiply(), Cholesky with the elimination fallback -- the
// formulation ml::LinearRegressor and ml::HuberRegressor must reproduce bit
// for bit.

#ifndef KEA_TESTS_REFERENCE_FITS_H_
#define KEA_TESTS_REFERENCE_FITS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"
#include "ml/regression.h"

namespace kea::ml {

struct ReferenceFit {
  StatusOr<LinearModel> model;
  bool used_elimination = false;  ///< Cholesky failed on the Gram matrix.
};

inline ReferenceFit ReferenceWls(const Dataset& data, const Vector& weights, double l2) {
  Matrix design(data.x.rows(), data.x.cols() + 1, 0.0);
  Vector scaled_y(data.y.size());
  for (size_t r = 0; r < design.rows(); ++r) {
    design(r, 0) = 1.0;
    for (size_t c = 0; c < data.x.cols(); ++c) design(r, c + 1) = data.x(r, c);
    double s = std::sqrt(weights[r]);
    for (size_t c = 0; c < design.cols(); ++c) design(r, c) *= s;
    scaled_y[r] = data.y[r] * s;
  }
  Matrix gram = design.Gram();
  if (l2 > 0.0) {
    for (size_t i = 1; i < gram.rows(); ++i) gram(i, i) += l2;
  }
  Vector rhs = design.TransposedMultiply(scaled_y).value();
  ReferenceFit fit{Status::Internal("unset")};
  StatusOr<Vector> beta = SolveCholesky(gram, rhs);
  if (!beta.ok()) {
    fit.used_elimination = true;
    beta = SolveLinearSystem(gram, rhs);
  }
  if (!beta.ok()) {
    fit.model = beta.status();
    return fit;
  }
  fit.model = LinearModel((*beta)[0], Vector(beta->begin() + 1, beta->end()));
  return fit;
}

inline double ReferenceMedianAbs(Vector values) {
  for (double& v : values) v = std::fabs(v);
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    std::nth_element(values.begin(), values.begin() + mid - 1, values.begin() + mid);
    m = 0.5 * (m + values[mid - 1]);
  }
  return m;
}

/// What the reference IRLS did, classifying every row in every iteration.
struct ReferenceIrlsStats {
  int iterations = 0;  ///< Reweighted solves run.
  /// Rows that are outliers in an iteration or were in the one before,
  /// summed over the iterations: HuberRegressor::FitStats::rows_reweighted.
  uint64_t rows_reweighted = 0;
  uint64_t outlier_rows = 0;  ///< Outliers, summed over the iterations.
  /// Rows whose class changed from one iteration to the next, and changed
  /// back later.
  uint64_t rows_flipped_back = 0;
  /// The largest relative move of the robust scale from one iteration to
  /// the next.
  double max_scale_step = 0.0;
};

inline StatusOr<LinearModel> ReferenceHuber(const Dataset& data,
                                            const HuberRegressor::Options& options,
                                            ReferenceIrlsStats* stats = nullptr) {
  ReferenceIrlsStats done;
  const size_t n = data.y.size();
  std::vector<bool> outlier(n, false);
  std::vector<int> changes(n, 0);
  Vector weights(n, 1.0);
  double last_scale = 0.0;
  StatusOr<LinearModel> model = ReferenceWls(data, weights, options.l2).model;
  for (int iter = 0; iter < options.max_iterations && model.ok(); ++iter) {
    Vector residuals(n);
    for (size_t r = 0; r < n; ++r) {
      Vector features(data.x.cols());
      for (size_t c = 0; c < data.x.cols(); ++c) features[c] = data.x(r, c);
      residuals[r] = data.y[r] - model->Predict(features);
    }
    double scale = ReferenceMedianAbs(residuals) / 0.6745;
    if (scale < 1e-12) scale = 1e-12;
    if (iter > 0) {
      done.max_scale_step = std::max(done.max_scale_step, std::fabs(scale / last_scale - 1.0));
    }
    last_scale = scale;
    double max_weight_change = 0.0;
    for (size_t r = 0; r < n; ++r) {
      double z = std::fabs(residuals[r]) / scale;
      double w = z <= options.delta ? 1.0 : options.delta / z;
      max_weight_change = std::max(max_weight_change, std::fabs(w - weights[r]));
      weights[r] = w;
      const bool now = !(z <= options.delta);
      done.rows_reweighted += now || outlier[r];
      done.outlier_rows += now;
      if (iter > 0 && now != outlier[r] && ++changes[r] == 2) ++done.rows_flipped_back;
      outlier[r] = now;
    }
    model = ReferenceWls(data, weights, options.l2).model;
    ++done.iterations;
    if (max_weight_change < options.tolerance) break;
  }
  if (stats != nullptr) *stats = done;
  return model;
}

}  // namespace kea::ml

#endif  // KEA_TESTS_REFERENCE_FITS_H_
