#include "ml/regression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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

}  // namespace
}  // namespace kea::ml
