#ifndef KEA_ML_MATRIX_H_
#define KEA_ML_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/status.h"

namespace kea::ml {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles. Sized for the regression problems KEA
/// solves (design matrices with a handful of features); not a BLAS
/// replacement.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same width (asserted).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// The entries, row by row.
  const double* data() const { return data_.data(); }

  /// Matrix transpose.
  Matrix Transposed() const;

  /// Matrix-matrix product; returns InvalidArgument on shape mismatch.
  StatusOr<Matrix> Multiply(const Matrix& other) const;

  /// Matrix-vector product; returns InvalidArgument on shape mismatch.
  StatusOr<Vector> Multiply(const Vector& v) const;

  /// Returns this^T * this (the Gram matrix of the columns).
  Matrix Gram() const;

  /// Returns this^T * v; requires v.size() == rows().
  StatusOr<Vector> TransposedMultiply(const Vector& v) const;

  /// Adds `value` to every diagonal entry (ridge regularization).
  void AddToDiagonal(double value);

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves the square linear system A x = b via Gaussian elimination with
/// partial pivoting. Returns:
///  - InvalidArgument if A is not square or shapes mismatch,
///  - FailedPrecondition if A is (numerically) singular.
StatusOr<Vector> SolveLinearSystem(Matrix a, Vector b);

/// Solves a symmetric positive-definite system via Cholesky factorization.
/// Returns FailedPrecondition if A is not positive definite.
StatusOr<Vector> SolveCholesky(const Matrix& a, const Vector& b);

/// Dot product; asserts equal sizes.
double Dot(const Vector& a, const Vector& b);

}  // namespace kea::ml

#endif  // KEA_ML_MATRIX_H_
