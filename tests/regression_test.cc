#include "ml/regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "reference_fits.h"

namespace kea::ml {
namespace {

Dataset NoisyLine(double intercept, double slope, size_t n, double noise, Rng* rng) {
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng->Uniform(0.0, 10.0);
    y[i] = intercept + slope * x[i] + rng->Gaussian(0.0, noise);
  }
  return MakeDataset1D(x, y);
}

TEST(LinearRegressorTest, RecoversExactLine) {
  Rng rng(1);
  Dataset data = NoisyLine(2.0, 3.0, 50, 0.0, &rng);
  LinearRegressor reg;
  auto model = reg.Fit(data);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_NEAR(model->intercept(), 2.0, 1e-9);
  EXPECT_NEAR(model->coefficients()[0], 3.0, 1e-9);
}

TEST(LinearRegressorTest, RecoversNoisyLine) {
  Rng rng(2);
  Dataset data = NoisyLine(-1.0, 0.5, 2000, 0.3, &rng);
  LinearRegressor reg;
  auto model = reg.Fit(data);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->intercept(), -1.0, 0.05);
  EXPECT_NEAR(model->coefficients()[0], 0.5, 0.01);
}

TEST(LinearRegressorTest, MultivariateRecovery) {
  Rng rng(3);
  const size_t n = 500;
  Dataset data;
  data.x = Matrix(n, 3);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(0, 5), b = rng.Uniform(0, 5), c = rng.Uniform(0, 5);
    data.x(i, 0) = a;
    data.x(i, 1) = b;
    data.x(i, 2) = c;
    data.y[i] = 1.0 + 2.0 * a - 3.0 * b + 0.5 * c;
  }
  LinearRegressor reg;
  auto model = reg.Fit(data);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->intercept(), 1.0, 1e-8);
  EXPECT_NEAR(model->coefficients()[0], 2.0, 1e-8);
  EXPECT_NEAR(model->coefficients()[1], -3.0, 1e-8);
  EXPECT_NEAR(model->coefficients()[2], 0.5, 1e-8);
}

TEST(LinearRegressorTest, RejectsEmptyDataset) {
  LinearRegressor reg;
  Dataset empty;
  EXPECT_EQ(reg.Fit(empty).status().code(), StatusCode::kInvalidArgument);
}

TEST(LinearRegressorTest, RejectsTooFewObservations) {
  Dataset data;
  data.x = Matrix(1, 2);
  data.y = {1.0};
  LinearRegressor reg;
  EXPECT_EQ(reg.Fit(data).status().code(), StatusCode::kInvalidArgument);
}

TEST(LinearRegressorTest, RejectsNegativeWeights) {
  Rng rng(4);
  Dataset data = NoisyLine(0.0, 1.0, 10, 0.0, &rng);
  LinearRegressor reg;
  Vector weights(10, 1.0);
  weights[3] = -1.0;
  EXPECT_EQ(reg.FitWeighted(data, weights).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearRegressorTest, ZeroWeightIgnoresObservation) {
  Rng rng(5);
  Dataset data = NoisyLine(1.0, 2.0, 40, 0.0, &rng);
  // Corrupt one observation, then weight it out.
  data.y[0] += 1000.0;
  Vector weights(40, 1.0);
  weights[0] = 0.0;
  LinearRegressor reg;
  auto model = reg.FitWeighted(data, weights);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->intercept(), 1.0, 1e-8);
  EXPECT_NEAR(model->coefficients()[0], 2.0, 1e-8);
}

TEST(LinearRegressorTest, RidgeShrinksCoefficients) {
  Rng rng(6);
  Dataset data = NoisyLine(0.0, 5.0, 100, 0.1, &rng);
  LinearRegressor plain(0.0);
  LinearRegressor ridge(1000.0);
  auto m1 = plain.Fit(data);
  auto m2 = ridge.Fit(data);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_LT(std::fabs(m2->coefficients()[0]), std::fabs(m1->coefficients()[0]));
}

TEST(HuberRegressorTest, MatchesOlsOnCleanData) {
  Rng rng(7);
  Dataset data = NoisyLine(3.0, -2.0, 500, 0.2, &rng);
  auto ols = LinearRegressor().Fit(data);
  auto huber = HuberRegressor().Fit(data);
  ASSERT_TRUE(ols.ok());
  ASSERT_TRUE(huber.ok());
  EXPECT_NEAR(huber->intercept(), ols->intercept(), 0.05);
  EXPECT_NEAR(huber->coefficients()[0], ols->coefficients()[0], 0.02);
}

TEST(HuberRegressorTest, RobustToOutliers) {
  Rng rng(8);
  Dataset data = NoisyLine(1.0, 2.0, 400, 0.1, &rng);
  // Contaminate 10% of the targets with gross outliers.
  for (size_t i = 0; i < 40; ++i) {
    data.y[i * 10] += 80.0;
  }
  auto ols = LinearRegressor().Fit(data);
  auto huber = HuberRegressor().Fit(data);
  ASSERT_TRUE(ols.ok());
  ASSERT_TRUE(huber.ok());
  double ols_err = std::fabs(ols->coefficients()[0] - 2.0) +
                   std::fabs(ols->intercept() - 1.0);
  double huber_err = std::fabs(huber->coefficients()[0] - 2.0) +
                     std::fabs(huber->intercept() - 1.0);
  EXPECT_LT(huber_err, ols_err / 3.0);
  EXPECT_NEAR(huber->coefficients()[0], 2.0, 0.05);
}

TEST(LinearModelTest, PredictAndPredict1D) {
  LinearModel model(1.0, {2.0});
  EXPECT_DOUBLE_EQ(model.Predict1D(3.0), 7.0);
  EXPECT_DOUBLE_EQ(model.Predict({3.0}), 7.0);
}

TEST(LinearModelTest, PredictBatch) {
  LinearModel model(1.0, {2.0, -1.0});
  Matrix features = {{1.0, 1.0}, {0.0, 3.0}};
  auto pred = model.PredictBatch(features);
  ASSERT_TRUE(pred.ok());
  EXPECT_DOUBLE_EQ((*pred)[0], 2.0);
  EXPECT_DOUBLE_EQ((*pred)[1], -2.0);
}

TEST(LinearModelTest, PredictBatchShapeMismatch) {
  LinearModel model(0.0, {1.0});
  Matrix features(2, 3);
  EXPECT_FALSE(model.PredictBatch(features).ok());
}

TEST(LinearModelTest, Invert1D) {
  LinearModel model(1.0, {2.0});
  auto x = model.Invert1D(7.0);
  ASSERT_TRUE(x.ok());
  EXPECT_DOUBLE_EQ(*x, 3.0);
}

TEST(LinearModelTest, Invert1DRejectsFlatModel) {
  LinearModel model(1.0, {0.0});
  EXPECT_EQ(model.Invert1D(5.0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(LinearModelTest, Invert1DRejectsMultivariate) {
  LinearModel model(1.0, {1.0, 2.0});
  EXPECT_EQ(model.Invert1D(5.0).status().code(), StatusCode::kFailedPrecondition);
}

TEST(EvaluateTest, PerfectFitHasR2One) {
  Rng rng(9);
  Dataset data = NoisyLine(2.0, 3.0, 100, 0.0, &rng);
  auto model = LinearRegressor().Fit(data);
  ASSERT_TRUE(model.ok());
  auto metrics = Evaluate(*model, data);
  ASSERT_TRUE(metrics.ok());
  EXPECT_NEAR(metrics->r2, 1.0, 1e-10);
  EXPECT_NEAR(metrics->rmse, 0.0, 1e-8);
  EXPECT_NEAR(metrics->mae, 0.0, 1e-8);
}

TEST(EvaluateTest, NoisyFitMetricsReasonable) {
  Rng rng(10);
  Dataset data = NoisyLine(0.0, 1.0, 3000, 0.5, &rng);
  auto model = LinearRegressor().Fit(data);
  ASSERT_TRUE(model.ok());
  auto metrics = Evaluate(*model, data);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->r2, 0.9);
  EXPECT_NEAR(metrics->rmse, 0.5, 0.05);
}

// Property sweep: OLS recovery across slope/noise combinations.
class RegressionRecoveryTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RegressionRecoveryTest, SlopeRecoveredWithinTolerance) {
  auto [slope, noise] = GetParam();
  Rng rng(static_cast<uint64_t>(slope * 100 + noise * 10 + 3));
  Dataset data = NoisyLine(1.0, slope, 4000, noise, &rng);
  auto model = LinearRegressor().Fit(data);
  ASSERT_TRUE(model.ok());
  // Standard error of the slope ~ noise / (sd(x) * sqrt(n)).
  double tolerance = 5.0 * noise / (2.9 * std::sqrt(4000.0)) + 1e-9;
  EXPECT_NEAR(model->coefficients()[0], slope, tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    SlopeNoiseGrid, RegressionRecoveryTest,
    ::testing::Combine(::testing::Values(-4.0, -0.5, 0.0, 0.5, 4.0),
                       ::testing::Values(0.01, 0.2, 1.0)));

// Property sweep: Huber stays accurate across contamination rates.
class HuberContaminationTest : public ::testing::TestWithParam<double> {};

TEST_P(HuberContaminationTest, SlopeWithinFivePercent) {
  double contamination = GetParam();
  Rng rng(77);
  Dataset data = NoisyLine(0.0, 3.0, 1000, 0.1, &rng);
  size_t corrupted = static_cast<size_t>(contamination * 1000);
  for (size_t i = 0; i < corrupted; ++i) {
    data.y[i] = 500.0;  // Gross outliers all pulling one way.
  }
  auto model = HuberRegressor().Fit(data);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients()[0], 3.0, 0.15)
      << "contamination=" << contamination;
}

INSTANTIATE_TEST_SUITE_P(ContaminationLevels, HuberContaminationTest,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10));

// ---------------------------------------------------------------------------
// Bit-identity against the materialized normal equations. FitWeighted and
// HuberRegressor stream the design row by row; the references in
// reference_fits.h build the design [1 | x] scaled by sqrt(w) in full and
// solve through Matrix::Gram() / TransposedMultiply(), Cholesky with the
// elimination fallback -- the formulation the streamed code must reproduce
// bit for bit.

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameFit(const StatusOr<LinearModel>& got, const StatusOr<LinearModel>& want) {
  ASSERT_EQ(got.ok(), want.ok()) << got.status() << " vs " << want.status();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  EXPECT_EQ(Bits(got->intercept()), Bits(want->intercept()));
  ASSERT_EQ(got->coefficients().size(), want->coefficients().size());
  for (size_t c = 0; c < got->coefficients().size(); ++c) {
    EXPECT_EQ(Bits(got->coefficients()[c]), Bits(want->coefficients()[c])) << "c=" << c;
  }
}

/// The 3-feature data of MultivariateRecovery, plus optional noise and
/// exact zeros in features and targets (each exercises a zero skip).
Dataset ThreeFeatureData(double noise, bool zeros) {
  Rng rng(3);
  const size_t n = 500;
  Dataset data;
  data.x = Matrix(n, 3);
  data.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double a = rng.Uniform(0, 5), b = rng.Uniform(0, 5), c = rng.Uniform(0, 5);
    data.x(i, 0) = a;
    data.x(i, 1) = b;
    data.x(i, 2) = c;
    data.y[i] = 1.0 + 2.0 * a - 3.0 * b + 0.5 * c + rng.Gaussian(0.0, noise);
  }
  if (zeros) {
    for (size_t i = 0; i < n; i += 7) data.x(i, i % 3) = 0.0;
    for (size_t i = 3; i < n; i += 11) data.y[i] = 0.0;
  }
  return data;
}

/// Weights in [0, 2] with every fifth one exactly zero.
Vector MixedWeights(size_t n, Rng* rng) {
  Vector w(n);
  for (size_t i = 0; i < n; ++i) w[i] = i % 5 == 0 ? 0.0 : rng->Uniform(0.0, 2.0);
  return w;
}

TEST(StreamedFitBitIdentityTest, WeightedLeastSquares) {
  Rng rng(31);
  Dataset line = NoisyLine(1.5, -0.7, 300, 0.4, &rng);
  for (size_t i = 0; i < line.size(); i += 13) line.y[i] = 0.0;
  const std::vector<Dataset> datasets = {line, ThreeFeatureData(0.0, false),
                                         ThreeFeatureData(0.3, true)};
  for (const Dataset& data : datasets) {
    const Vector ones(data.size(), 1.0);
    const Vector mixed = MixedWeights(data.size(), &rng);
    for (double l2 : {0.0, 2.5}) {
      SCOPED_TRACE("features=" + std::to_string(data.x.cols()) +
                   " l2=" + std::to_string(l2));
      LinearRegressor reg(l2);
      ExpectSameFit(reg.Fit(data), ReferenceWls(data, ones, l2).model);
      ExpectSameFit(reg.FitWeighted(data, mixed), ReferenceWls(data, mixed, l2).model);
    }
  }
}

TEST(StreamedFitBitIdentityTest, HuberIrls) {
  Rng rng(32);
  Dataset line = NoisyLine(2.0, 0.8, 401, 0.2, &rng);
  for (size_t i = 0; i < line.size(); i += 9) line.y[i] += 25.0;  // Outliers.
  Dataset noisy3 = ThreeFeatureData(0.3, true);
  for (size_t i = 0; i < noisy3.size(); i += 17) noisy3.y[i] -= 40.0;
  const std::vector<Dataset> datasets = {line, NoisyLine(-1.0, 3.0, 64, 0.1, &rng),
                                         ThreeFeatureData(0.0, false), noisy3};
  for (const Dataset& data : datasets) {
    for (double l2 : {0.0, 2.5}) {
      SCOPED_TRACE("n=" + std::to_string(data.size()) +
                   " features=" + std::to_string(data.x.cols()) +
                   " l2=" + std::to_string(l2));
      HuberRegressor::Options options;
      options.l2 = l2;
      ExpectSameFit(HuberRegressor(options).Fit(data), ReferenceHuber(data, options));
    }
  }
}

TEST(StreamedFitBitIdentityTest, CholeskyFallbackAndRankDeficientDesigns) {
  // Tiny uniform weights leave the intercept's Gram entry below Cholesky's
  // positive-definiteness floor while pivoted elimination still solves it.
  Rng rng(33);
  const size_t n = 10;
  Vector x(n), y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = 1000.0 + 1000.0 * rng.Gaussian();
    y[i] = 3.0 + 0.5 * x[i] + rng.Gaussian();
  }
  Dataset ill = MakeDataset1D(x, y);
  const Vector tiny(n, 5e-16);
  ReferenceFit reference = ReferenceWls(ill, tiny, 0.0);
  ASSERT_TRUE(reference.used_elimination);
  ASSERT_TRUE(reference.model.ok()) << reference.model.status();
  ExpectSameFit(LinearRegressor().FitWeighted(ill, tiny), reference.model);

  // Exactly collinear and all-zero columns: whichever way the solvers land
  // (a rounding-level pivot or a singular-matrix error), the streamed fit
  // lands the same way.
  Dataset collinear = ThreeFeatureData(0.3, false);
  Dataset zero_column = collinear;
  for (size_t i = 0; i < collinear.size(); ++i) {
    collinear.x(i, 2) = 2.0 * collinear.x(i, 0);
    zero_column.x(i, 1) = 0.0;
  }
  for (const Dataset& data : {collinear, zero_column}) {
    const Vector ones(data.size(), 1.0);
    ExpectSameFit(LinearRegressor().Fit(data), ReferenceWls(data, ones, 0.0).model);
    ExpectSameFit(HuberRegressor().Fit(data), ReferenceHuber(data, HuberRegressor::Options()));
  }
  const Vector ones(zero_column.size(), 1.0);
  EXPECT_TRUE(ReferenceWls(zero_column, ones, 0.0).used_elimination);
}

TEST(StreamedFitBitIdentityTest, HuberIrlsEdgeCases) {
  Rng rng(34);
  std::vector<std::pair<std::string, Dataset>> cases;
  // All-zero targets fit the zero model exactly, so every residual is zero
  // and the scale takes its 1e-12 floor; a constant target fits to within
  // rounding and takes the floor too.
  Vector x(12), zeros(12, 0.0), constant(12, 3.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i);
  cases.emplace_back("zero residuals", MakeDataset1D(x, zeros));
  cases.emplace_back("constant target", MakeDataset1D(x, constant));
  // Every row twice: the residuals tie in pairs.
  Dataset line = NoisyLine(1.0, -2.0, 150, 0.3, &rng);
  for (size_t i = 0; i < line.size(); i += 7) line.y[i] += 15.0;
  Vector dx, dy;
  for (size_t i = 0; i < line.size(); ++i) {
    for (int copy = 0; copy < 2; ++copy) {
      dx.push_back(line.x(i, 0));
      dy.push_back(line.y[i]);
    }
  }
  cases.emplace_back("duplicated rows", MakeDataset1D(dx, dy));
  cases.emplace_back("n = 3", MakeDataset1D({0.5, 1.5, 4.0}, {1.0, 2.5, 9.0}));
  for (const auto& [name, data] : cases) {
    for (double l2 : {0.0, 0.75}) {
      SCOPED_TRACE(name + " l2=" + std::to_string(l2));
      HuberRegressor::Options options;
      options.l2 = l2;
      ExpectSameFit(HuberRegressor(options).Fit(data), ReferenceHuber(data, options));
    }
  }
}

/// Bits of `v` with its low `bits` bits replaced by random ones.
double WithRandomLowBits(double v, int bits, Rng* rng) {
  const uint64_t mask = (uint64_t{1} << bits) - 1;
  const uint64_t low = static_cast<uint64_t>(rng->Uniform(0.0, 1.0) * 4294967296.0) &
                       mask;
  return std::bit_cast<double>((std::bit_cast<uint64_t>(v) & ~mask) | low);
}

TEST(MedianAbsTest, MatchesNthElementOnNanFreeVectors) {
  Rng rng(35);
  const double inf = std::numeric_limits<double>::infinity();
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const Vector small_set = {0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, -inf};
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 31, 32, 33, 34, 64, 65, 100, 101,
                               1000, 1001, 2047, 2048, 3359, 3360, 3999, 4000};
  for (int i = 0; i < 24; ++i) sizes.push_back(1 + static_cast<size_t>(rng.Uniform(0.0, 4000.0)));
  // Each generator fills one value; "shared bits" values agree on all but
  // their low 8 (or 20) bits, so every digit of the select takes part.
  const std::vector<std::pair<std::string, std::function<double()>>> generators = {
      {"gaussian", [&] { return rng.Gaussian(0.0, 3.0); }},
      {"outliers", [&] { return rng.Gaussian() + (rng.Uniform(0, 1) < 0.1 ? 50.0 : 0.0); }},
      {"ties", [&] { return small_set[static_cast<size_t>(rng.Uniform(0.0, 8.0))]; }},
      {"all equal", [&] { return -3.25; }},
      {"signed zeros", [&] { return rng.Uniform(0, 1) < 0.5 ? 0.0 : -0.0; }},
      {"specials",
       [&] {
         switch (static_cast<int>(rng.Uniform(0.0, 6.0))) {
           case 0: return -0.0;
           case 1: return subnormal * std::floor(rng.Uniform(1.0, 100.0));
           case 2: return -WithRandomLowBits(subnormal, 40, &rng);
           case 3: return inf;
           case 4: return std::numeric_limits<double>::max();
           default: return rng.Gaussian();
         }
       }},
      {"shared bits low 8", [&] { return WithRandomLowBits(-1.5, 8, &rng); }},
      {"shared bits low 20", [&] { return WithRandomLowBits(1e6, 20, &rng); }},
  };
  for (const auto& [name, draw] : generators) {
    for (size_t n : sizes) {
      Vector values(n);
      for (double& v : values) v = draw();
      EXPECT_EQ(Bits(MedianAbs(values)), Bits(ReferenceMedianAbs(values)))
          << name << " n=" << n;
    }
  }
}

TEST(LinearRegressorTest, RejectsNonFiniteInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(36);
  const Dataset clean = NoisyLine(1.0, 2.0, 30, 0.1, &rng);
  std::vector<Dataset> bad(3, clean);
  bad[0].x(4, 0) = nan;
  bad[1].y[7] = nan;
  bad[2].y[11] = inf;
  for (const Dataset& data : bad) {
    EXPECT_EQ(LinearRegressor().Fit(data).status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(HuberRegressor().Fit(data).status().code(), StatusCode::kInvalidArgument);
  }
  for (double w : {nan, inf}) {
    Vector weights(clean.size(), 1.0);
    weights[5] = w;
    EXPECT_EQ(LinearRegressor().FitWeighted(clean, weights).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(HuberRegressorTest, RefusesAModelThatOverflows) {
  // Finite data whose squares overflow: the normal equations hold inf, the
  // fitted model is not finite, and its residuals could not be ranked.
  Vector x = {1e200, -3e200, 2e200, 5e199};
  Vector y = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(HuberRegressor().Fit(MakeDataset1D(x, y)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LinearRegressorTest, RefusesAModelThatOverflows) {
  // The same data fit by least squares: no NaN model with an OK status.
  Vector x = {1e200, -3e200, 2e200, 5e199};
  Vector y = {1.0, 2.0, 3.0, 4.0};
  const Dataset data = MakeDataset1D(x, y);
  const Status fit = LinearRegressor().Fit(data).status();
  EXPECT_EQ(fit.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(fit.message().find("non-finite model"), std::string::npos) << fit.message();
  EXPECT_EQ(fit.message().find("Huber"), std::string::npos) << fit.message();
  EXPECT_EQ(LinearRegressor().FitWeighted(data, Vector{1.0, 0.5, 2.0, 1.0}).status().code(),
            StatusCode::kFailedPrecondition);
}


// ---------------------------------------------------------------------------
// The one-feature kernel, HuberRegressor::FitLine, against ReferenceHuber,
// which classifies every row in every iteration: the coefficients bit for
// bit, the iteration count, and the rows the kernel reweighted. The Dataset
// entry point delegates to the kernel and must agree too.

std::span<const double> Column(const Dataset& data) {
  return std::span(data.x.data(), data.x.rows());
}

/// Fits `data` through both entry points and expects the reference's model,
/// iterations and reweighted rows; returns the reference's counts.
ReferenceIrlsStats ExpectKernelMatchesReference(const Dataset& data,
                                                const HuberRegressor::Options& options) {
  ReferenceIrlsStats want;
  const StatusOr<LinearModel> reference = ReferenceHuber(data, options, &want);
  HuberRegressor::FitStats got;
  ExpectSameFit(HuberRegressor(options).FitLine(Column(data), data.y, &got), reference);
  int iterations = -1;
  ExpectSameFit(HuberRegressor(options).Fit(data, &iterations), reference);
  if (reference.ok()) {
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(iterations, want.iterations);
    EXPECT_EQ(got.rows_reweighted, want.rows_reweighted);
  }
  return want;
}

/// The first iteration's residuals of the least-squares line and their
/// robust scale, computed as the kernel computes them.
std::pair<Vector, double> FirstResiduals(const Dataset& data) {
  const LinearModel ols = ReferenceWls(data, Vector(data.size(), 1.0), 0.0).model.value();
  Vector residuals(data.size());
  for (size_t r = 0; r < data.size(); ++r) {
    residuals[r] = data.y[r] - ols.Predict({data.x(r, 0)});
  }
  return {residuals, std::max(ReferenceMedianAbs(residuals) / 0.6745, 1e-12)};
}

TEST(LineKernelTest, ResidualOnTheInlierBoundaryAndOneUlpEitherSide) {
  // delta = fl(|r| / scale) of one row's first residual puts that row exactly
  // on the boundary (an inlier); one ulp of delta below makes it an outlier,
  // one ulp above leaves it an inlier with the next row's ratio in reach.
  // The scale is below 1 on one dataset and far above it on the other, so
  // the division both spreads and merges neighbouring residuals.
  const double inf = std::numeric_limits<double>::infinity();
  for (double noise : {0.05, 40.0}) {
    Rng rng(41);
    Dataset data = NoisyLine(1.0, 2.0, 201, noise, &rng);
    for (size_t i = 0; i < data.size(); i += 10) data.y[i] += 8.0 * noise;
    const auto [residuals, scale] = FirstResiduals(data);
    for (size_t row : {3, 50, 120, 170}) {
      const double z = std::fabs(residuals[row]) / scale;
      for (double delta : {z, std::nextafter(z, 0.0), std::nextafter(z, inf)}) {
        SCOPED_TRACE("noise=" + std::to_string(noise) + " row=" + std::to_string(row) +
                     " delta=" + std::to_string(delta));
        HuberRegressor::Options options;
        options.delta = delta;
        ExpectKernelMatchesReference(data, options);
      }
    }
  }
}

TEST(LineKernelTest, RowsThatFlipClassAndFlipBack) {
  // A quarter of the targets lifted by 2 to 6 noise widths sit near the
  // boundary: as the model and the scale move, some cross it one way and
  // later the other. A tight tolerance runs enough iterations to see it.
  for (uint64_t seed : {43, 58}) {
    Rng rng(seed);
    Dataset data = NoisyLine(0.5, -1.5, 2000, 1.0, &rng);
    for (size_t i = 0; i < data.size(); i += 4) data.y[i] += rng.Uniform(2.0, 6.0);
    for (double l2 : {0.0, 3.0}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " l2=" + std::to_string(l2));
      HuberRegressor::Options options;
      options.l2 = l2;
      options.tolerance = 1e-10;
      const ReferenceIrlsStats want = ExpectKernelMatchesReference(data, options);
      EXPECT_GT(want.rows_flipped_back, 0u);
    }
  }
}

TEST(LineKernelTest, MostRowsOutliers) {
  // A small delta makes most rows outliers, and so does a moderate one when
  // 60% of the targets are contaminated: the outlier lists hold most rows.
  Rng rng(43);
  Dataset line = NoisyLine(2.0, 1.0, 301, 0.5, &rng);
  Dataset contaminated = line;
  for (size_t i = 0; i < contaminated.size(); ++i) {
    if (rng.Uniform(0.0, 1.0) < 0.6) contaminated.y[i] += rng.Uniform(-30.0, 30.0);
  }
  for (const auto& [data, delta] : {std::pair(line, 0.2), std::pair(contaminated, 0.5)}) {
    SCOPED_TRACE("delta=" + std::to_string(delta));
    HuberRegressor::Options options;
    options.delta = delta;
    const ReferenceIrlsStats want = ExpectKernelMatchesReference(data, options);
    EXPECT_GT(want.outlier_rows, static_cast<uint64_t>(want.iterations) * data.size() / 2);
  }
}

TEST(LineKernelTest, ScaleThatStaysOrJumpsBetweenIterations) {
  // From the second iteration on, the kernel selects the MAD among the keys
  // within a sixteenth of the last MAD, and over all keys when the window
  // misses the middle ranks. One-sided contamination moves the scale by far
  // more than that after the first solve; a clean line barely moves it.
  for (const auto& [fraction, shift] : {std::pair(0.1, 20.0), std::pair(0.2, 5.0),
                                        std::pair(0.0, 0.0)}) {
    SCOPED_TRACE("fraction=" + std::to_string(fraction));
    Rng rng(60);
    Dataset data = NoisyLine(1.0, 2.0, 400, 0.5, &rng);
    for (size_t i = 0; i < data.size(); ++i) {
      if (rng.Uniform(0.0, 1.0) < fraction) data.y[i] += shift;
    }
    const ReferenceIrlsStats want =
        ExpectKernelMatchesReference(data, HuberRegressor::Options());
    ASSERT_GE(want.iterations, 2);
    if (fraction > 0.0) {
      EXPECT_GT(want.max_scale_step, 1.0 / 16);
    } else {
      EXPECT_LT(want.max_scale_step, 1.0 / 64);
    }
  }
}

TEST(LineKernelTest, ZeroResidualsClampTheScale) {
  // All-zero targets fit the zero model exactly; every residual is zero and
  // the scale takes its 1e-12 floor. A constant target and an exact line
  // leave residuals at rounding level, around that floor.
  Vector x(15), zeros(15, 0.0), constant(15, -7.25), exact(15);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i) - 4.0;
    exact[i] = 3.0 + 0.5 * x[i];
  }
  for (const Vector* y : {&zeros, &constant, &exact}) {
    for (double l2 : {0.0, 0.5}) {
      HuberRegressor::Options options;
      options.l2 = l2;
      ExpectKernelMatchesReference(MakeDataset1D(x, *y), options);
    }
  }
}

TEST(LineKernelTest, ZeroFeaturesAndTargetsTakeTheZeroSkips) {
  // Rows with x = +-0 or y = +-0, some of them outliers, so that a scaled
  // zero meets a root below 1 in every skipped product.
  Rng rng(44);
  Dataset data = NoisyLine(4.0, 1.5, 120, 0.3, &rng);
  for (size_t i = 0; i < data.size(); i += 6) data.x(i, 0) = i % 12 == 0 ? 0.0 : -0.0;
  for (size_t i = 2; i < data.size(); i += 9) data.y[i] = i % 18 == 2 ? 0.0 : -0.0;
  for (size_t i = 5; i < data.size(); i += 30) data.x(i, 0) = data.y[i] = 0.0;
  for (double l2 : {0.0, 1.0}) {
    HuberRegressor::Options options;
    options.l2 = l2;
    const ReferenceIrlsStats want = ExpectKernelMatchesReference(data, options);
    EXPECT_GT(want.outlier_rows, 0u);
  }
}

TEST(LineKernelTest, SmallOddAndEvenRowCounts) {
  Rng rng(45);
  for (size_t n : {2, 3, 4, 5, 100, 101, 1000, 1001}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Dataset data = NoisyLine(-1.0, 0.25, n, 0.4, &rng);
    for (size_t i = 1; i < n; i += 7) data.y[i] += 6.0;
    ExpectKernelMatchesReference(data, HuberRegressor::Options());
  }
}

TEST(LineKernelTest, FitsOfEverySizeInTurn) {
  // Consecutive fits of different sizes and outlier sets on one thread, and
  // each again after the others: no fit sees another's state.
  Rng rng(46);
  std::vector<Dataset> datasets;
  for (size_t n : {3000, 40, 3000, 7, 511}) {
    Dataset data = NoisyLine(1.0, 1.0, n, 0.2, &rng);
    for (size_t i = 0; i < n; i += 3) data.y[i] += rng.Uniform(-20.0, 20.0);
    datasets.push_back(std::move(data));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const Dataset& data : datasets) {
      ExpectKernelMatchesReference(data, HuberRegressor::Options());
    }
  }
}

TEST(LineKernelTest, LeastSquaresLineIsTheFirstSolve) {
  Rng rng(47);
  Dataset data = NoisyLine(2.0, -0.5, 257, 0.7, &rng);
  for (size_t i = 0; i < data.size(); i += 11) data.y[i] = 0.0;
  for (double l2 : {0.0, 2.5}) {
    const ReferenceFit want = ReferenceWls(data, Vector(data.size(), 1.0), l2);
    ExpectSameFit(LinearRegressor(l2).FitLine(Column(data), data.y), want.model);
    ExpectSameFit(LinearRegressor(l2).Fit(data), want.model);
    HuberRegressor::Options options;
    options.l2 = l2;
    options.max_iterations = 0;
    HuberRegressor::FitStats stats;
    ExpectSameFit(HuberRegressor(options).FitLine(Column(data), data.y, &stats), want.model);
    EXPECT_EQ(stats.iterations, 0);
    EXPECT_EQ(stats.rows_reweighted, 0u);
  }
}

TEST(LineKernelTest, RefusesOverflowNonFiniteAndShapeErrors) {
  const Vector big_x = {1e200, -3e200, 2e200, 5e199}, y4 = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(HuberRegressor().FitLine(big_x, y4).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(LinearRegressor().FitLine(big_x, y4).status().code(),
            StatusCode::kFailedPrecondition);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(48);
  const Dataset clean = NoisyLine(1.0, 2.0, 30, 0.1, &rng);
  const std::span<const double> column = Column(clean);
  const Vector x(column.begin(), column.end());
  Vector bad_x = x, bad_y = clean.y;
  bad_x[4] = nan;
  bad_y[7] = -inf;
  using Case = std::tuple<const Vector*, const Vector*, std::string>;
  for (const auto& [fx, fy, message] :
       {Case(&bad_x, &clean.y, "non-finite feature in row 4"),
        Case(&x, &bad_y, "non-finite target in row 7")}) {
    for (const Status& status : {HuberRegressor().FitLine(*fx, *fy).status(),
                                 LinearRegressor().FitLine(*fx, *fy).status(),
                                 HuberRegressor().Fit(MakeDataset1D(*fx, *fy)).status()}) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(), message);
    }
  }
  const Vector one = {1.0}, two = {1.0, 2.0}, none;
  EXPECT_EQ(HuberRegressor().FitLine(none, none).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(HuberRegressor().FitLine(one, one).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(HuberRegressor().FitLine(one, two).status().code(), StatusCode::kInvalidArgument);
}

TEST(LineKernelTest, ColumnEvaluateMatchesDatasetEvaluate) {
  Rng rng(49);
  Dataset noisy = NoisyLine(3.0, -1.0, 333, 0.6, &rng);
  for (size_t i = 0; i < noisy.size(); i += 8) noisy.y[i] = i % 16 == 0 ? 0.0 : -0.0;
  for (size_t i = 4; i < noisy.size(); i += 10) noisy.x(i, 0) = -0.0;
  const Dataset flat = MakeDataset1D({1.0, 2.0, 3.0}, {5.0, 5.0, 5.0});
  for (const Dataset& data : {noisy, flat}) {
    for (const LinearModel& model :
         {HuberRegressor().Fit(data).value(), LinearModel(-0.0, {0.0}), LinearModel(5.0, {-0.0})}) {
      const RegressionMetrics got = Evaluate(model, Column(data), data.y).value();
      const RegressionMetrics want = Evaluate(model, data).value();
      EXPECT_EQ(Bits(got.r2), Bits(want.r2));
      EXPECT_EQ(Bits(got.rmse), Bits(want.rmse));
      EXPECT_EQ(Bits(got.mae), Bits(want.mae));
    }
  }
  EXPECT_EQ(Evaluate(LinearModel(0.0, {1.0, 2.0}), Column(noisy), noisy.y).status().code(),
            StatusCode::kInvalidArgument);
  const Vector one = {1.0};
  EXPECT_EQ(Evaluate(LinearModel(0.0, {1.0}), one, one).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kea::ml
