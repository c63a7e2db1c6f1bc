#ifndef KEA_ML_REGRESSION_H_
#define KEA_ML_REGRESSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "ml/matrix.h"

namespace kea::ml {

/// A dataset for regression: each row of `x` is one observation's features;
/// `y` holds the targets. An intercept column is added internally by the
/// regressors (do not add one yourself).
struct Dataset {
  Matrix x;  ///< n x d feature matrix.
  Vector y;  ///< n targets.

  size_t size() const { return y.size(); }
};

/// A fitted linear model: y_hat = intercept + dot(coefficients, features).
class LinearModel {
 public:
  LinearModel() = default;
  LinearModel(double intercept, Vector coefficients)
      : intercept_(intercept), coefficients_(std::move(coefficients)) {}

  double intercept() const { return intercept_; }
  const Vector& coefficients() const { return coefficients_; }

  /// Predicts a single observation; requires features.size() == coefficients().size().
  double Predict(const Vector& features) const;

  /// Convenience for 1-D models: predict from a scalar feature.
  double Predict1D(double x) const;

  /// Predicts every row of the feature matrix.
  StatusOr<Vector> PredictBatch(const Matrix& features) const;

  /// Inverts a 1-D model: returns the x with Predict1D(x) == y. Returns
  /// FailedPrecondition if the model is not 1-D or the slope is ~0.
  StatusOr<double> Invert1D(double y) const;

 private:
  double intercept_ = 0.0;
  Vector coefficients_;
};

/// Ordinary least squares (optionally ridge-regularized) linear regression.
/// Solves the normal equations via Cholesky with a Gaussian-elimination
/// fallback. Suitable for the small design matrices KEA fits per SC-SKU
/// group.
class LinearRegressor {
 public:
  /// l2 >= 0 adds ridge regularization on the coefficients (not the
  /// intercept).
  explicit LinearRegressor(double l2 = 0.0) : l2_(l2) {}

  /// Fits the model. Returns InvalidArgument if the dataset is empty, shapes
  /// mismatch or an entry of x or y is NaN or infinite; FailedPrecondition if
  /// the system is singular or the data overflow the normal equations, so
  /// the fitted model would not be finite. One feature takes FitLine.
  StatusOr<LinearModel> Fit(const Dataset& data) const;

  /// Fit of the one-feature design [1 | x] read from the columns in place;
  /// errors as Fit.
  StatusOr<LinearModel> FitLine(std::span<const double> x, std::span<const double> y) const;

  /// Weighted fit; `weights` must be finite and non-negative, one per
  /// observation.
  StatusOr<LinearModel> FitWeighted(const Dataset& data, const Vector& weights) const;

 private:
  double l2_;
};

/// Robust linear regression with the Huber loss, fit by iteratively
/// reweighted least squares (IRLS). This is the estimator the paper uses for
/// the What-if Engine models (Section 5.2.1): "more robust to outliers
/// compared to the Least Squares Regression".
class HuberRegressor {
 public:
  struct Options {
    /// Residuals beyond delta * (robust residual scale) get linear loss.
    double delta = 1.345;
    int max_iterations = 50;
    /// IRLS stops after the first reweighted solve in which every weight
    /// moved by less than this. At 1e-4 the What-if fits take about 5
    /// iterations, and every coefficient lies within about 1e-4 of its
    /// standard error of the fixed point (DESIGN.md "Fit hot path").
    double tolerance = 1e-4;
    /// Ridge term passed to the inner weighted least squares.
    double l2 = 0.0;
  };

  /// What one IRLS fit did.
  struct FitStats {
    int iterations = 0;  ///< Reweighted solves run (at most max_iterations).
    /// Rows whose weight was recomputed, summed over the iterations: the
    /// rows that were outliers in the iteration or in the one before it.
    uint64_t rows_reweighted = 0;
  };

  explicit HuberRegressor() : options_(Options()) {}
  explicit HuberRegressor(const Options& options) : options_(options) {}

  /// Fits the model; error conditions match LinearRegressor::Fit. When
  /// `iterations` is not null, a successful fit stores the number of
  /// reweighted solves it ran there (at most max_iterations). One feature
  /// takes FitLine.
  StatusOr<LinearModel> Fit(const Dataset& data, int* iterations = nullptr) const;

  /// IRLS on the one-feature design [1 | x], read from the columns in place:
  /// the kernel the What-if Engine's fits run. Bit for bit the iterations
  /// of Fit's multi-feature loop; per iteration it recomputes the weight of
  /// only the rows that are outliers now or were in the iteration before
  /// (DESIGN.md "Fit hot path"). Errors as Fit, and InvalidArgument above
  /// 2^32 - 1 rows. When `stats` is not null, a successful fit stores what
  /// it did there.
  StatusOr<LinearModel> FitLine(std::span<const double> x, std::span<const double> y,
                                FitStats* stats = nullptr) const;

 private:
  Options options_;
};

/// Goodness-of-fit metrics for a fitted model on a dataset.
struct RegressionMetrics {
  double r2 = 0.0;    ///< Coefficient of determination.
  double rmse = 0.0;  ///< Root mean squared error.
  double mae = 0.0;   ///< Mean absolute error.
};

/// Evaluates `model` on `data`.
StatusOr<RegressionMetrics> Evaluate(const LinearModel& model, const Dataset& data);

/// Evaluates a 1-D `model` on the columns (x, y) in place, bit for bit as
/// Evaluate on MakeDataset1D(x, y).
StatusOr<RegressionMetrics> Evaluate(const LinearModel& model, std::span<const double> x,
                                     std::span<const double> y);

/// Median of |values|, the robust residual scale (MAD) of the Huber fit: for
/// an even count, 0.5 * (upper middle + lower middle). Exact: a radix select
/// over the bit patterns of |v|, whose unsigned order is the values' order.
/// `values` must be non-empty and NaN-free.
double MedianAbs(const Vector& values);

/// Builds a 1-D dataset from paired samples (x_i, y_i).
Dataset MakeDataset1D(const Vector& x, const Vector& y);

}  // namespace kea::ml

#endif  // KEA_ML_REGRESSION_H_
