#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace kea {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMomentsApproximatelyCorrect) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gaussian(3.0, 2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 0.5), 0.0);
  }
}

TEST(RngTest, ParetoRespectsScaleAndMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  const double alpha = 3.0;
  for (int i = 0; i < n; ++i) {
    double p = rng.Pareto(1.0, alpha);
    EXPECT_GE(p, 1.0);
    sum += p;
  }
  // E[Pareto(1, 3)] = alpha / (alpha - 1) = 1.5.
  EXPECT_NEAR(sum / n, 1.5, 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(4.0));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(31);
  std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    size_t k = rng.Categorical(weights);
    ASSERT_LT(k, 2u);
    if (k == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(41);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<size_t>(i)] = i;
  std::vector<int> original = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(43);
  Rng child = parent.Fork();
  // The child stream should not replay the parent's values.
  Rng parent2(43);
  (void)parent2.engine()();  // Advance to match the Fork() consumption.
  int matches = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.Uniform() == parent2.Uniform()) ++matches;
  }
  EXPECT_LT(matches, 50);
}

/// The generator Rng held before Mt19937_64: std::mt19937_64 and the two
/// distributions Rng keeps, written the way Rng::SerializeState writes them.
struct StdRng {
  explicit StdRng(uint64_t s) : seed(s), engine(s) {}

  std::string Text() const {
    std::ostringstream out;
    out << seed << '\n' << engine << '\n' << unit << '\n' << normal << '\n';
    return out.str();
  }

  uint64_t seed;
  std::mt19937_64 engine;
  std::uniform_real_distribution<double> unit{0.0, 1.0};
  std::normal_distribution<double> normal{0.0, 1.0};
};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// 256 seeds: both ends of the range, two small ones, and mixed ones.
std::vector<uint64_t> TestSeeds() {
  std::vector<uint64_t> seeds = {0, ~uint64_t{0}, 1, 42};
  for (uint64_t i = 0; seeds.size() < 256; ++i) seeds.push_back(MixSeed(20261018, i));
  return seeds;
}

/// Raw draw counts at which the lazily seeded first block changes regime:
/// the first draws, either side of the bulk finish, the end of the twist's
/// first half, and the end of the first block.
std::vector<uint32_t> BoundaryDraws() {
  constexpr uint32_t kBulk = Mt19937_64::kLazyDraws;
  return {0, 1, 2, 3, 4, kBulk - 1, kBulk, kBulk + 1, 155, 156, 157, 311, 312, 313};
}

void Advance(uint32_t draws, Rng* rng, StdRng* ref) {
  for (uint32_t i = 0; i < draws; ++i) {
    (void)rng->engine()();
    (void)ref->engine();
  }
}

TEST(Mt19937_64Test, RawDrawsMatchStdThroughDrawOneThousand) {
  for (uint64_t seed : TestSeeds()) {
    Mt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    for (int draw = 0; draw <= 1000; ++draw) {
      ASSERT_EQ(lazy(), ref()) << "seed " << seed << ", draw " << draw;
    }
  }
}

TEST(Mt19937_64Test, SerializedStateIsStdTextAtEveryBoundary) {
  for (uint64_t seed : TestSeeds()) {
    for (uint32_t draws : BoundaryDraws()) {
      Rng rng(seed);
      StdRng ref(seed);
      Advance(draws, &rng, &ref);
      ASSERT_EQ(rng.SerializeState(), ref.Text()) << "seed " << seed << ", draw " << draws;
      // Marsaglia's method draws a pair and caches the spare.
      ASSERT_EQ(Bits(rng.Gaussian()), Bits(ref.normal(ref.engine)));
      ASSERT_EQ(rng.SerializeState(), ref.Text())
          << "seed " << seed << ", draw " << draws << " + a Gaussian";
    }
  }
}

TEST(Mt19937_64Test, CopiesContinueAsStd) {
  // A copy taken mid-way through the lazily seeded block reads only set
  // words and continues exactly as the original.
  for (uint64_t seed : TestSeeds()) {
    for (uint32_t draws : BoundaryDraws()) {
      Mt19937_64 lazy(seed);
      std::mt19937_64 ref(seed);
      for (uint32_t i = 0; i < draws; ++i) {
        (void)lazy();
        (void)ref();
      }
      Mt19937_64 copy = lazy;
      for (int i = 0; i < 400; ++i) {
        const uint64_t want = ref();
        ASSERT_EQ(copy(), want) << "seed " << seed << ", copied at draw " << draws;
        ASSERT_EQ(lazy(), want) << "seed " << seed << ", copied at draw " << draws;
      }
    }
  }
}

TEST(Mt19937_64Test, StdWrittenBlobRestoresAndContinues) {
  for (uint64_t seed : TestSeeds()) {
    for (uint32_t draws : BoundaryDraws()) {
      for (bool spare : {false, true}) {
        StdRng ref(seed);
        for (uint32_t i = 0; i < draws; ++i) (void)ref.engine();
        if (spare) (void)ref.normal(ref.engine);
        const std::string blob = ref.Text();

        Rng rng(seed ^ 0x5DEECE66DULL);
        (void)rng.Gaussian();
        ASSERT_TRUE(rng.RestoreState(blob).ok()) << "seed " << seed << ", draw " << draws;
        EXPECT_EQ(rng.seed(), seed);
        ASSERT_EQ(rng.SerializeState(), blob);
        for (int i = 0; i < 200; ++i) {
          ASSERT_EQ(Bits(rng.Gaussian()), Bits(ref.normal(ref.engine)))
              << "seed " << seed << ", draw " << draws << ", step " << i;
          ASSERT_EQ(Bits(rng.Uniform()), Bits(ref.unit(ref.engine)))
              << "seed " << seed << ", draw " << draws << ", step " << i;
        }
      }
    }
  }
}

TEST(Mt19937_64Test, SamplersMatchStdDistributions) {
  const std::vector<double> weights = {0.5, 2.0, 0.0, 1.5};
  for (uint64_t seed : TestSeeds()) {
    Rng rng(seed);
    StdRng ref(seed);
    std::mt19937_64& e = ref.engine;
    // Forty rounds of every sampler, interleaved, so the later rounds run
    // past the bulk finish and into the second block.
    for (int i = 0; i < 40; ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", round " + std::to_string(i));
      ASSERT_EQ(Bits(rng.Uniform()), Bits(ref.unit(e)));
      ASSERT_EQ(Bits(rng.Uniform(-3.0, 5.0)), Bits(-3.0 + 8.0 * ref.unit(e)));
      ASSERT_EQ(rng.UniformInt(-7, 1000), std::uniform_int_distribution<int64_t>(-7, 1000)(e));
      ASSERT_EQ(rng.UniformInt(INT64_MIN, INT64_MAX),
                std::uniform_int_distribution<int64_t>(INT64_MIN, INT64_MAX)(e));
      ASSERT_EQ(Bits(rng.Gaussian()), Bits(ref.normal(e)));
      ASSERT_EQ(Bits(rng.Gaussian(3.0, 2.0)), Bits(3.0 + 2.0 * ref.normal(e)));
      ASSERT_EQ(Bits(rng.Exponential(0.5)), Bits(std::exponential_distribution<double>(0.5)(e)));
      ASSERT_EQ(Bits(rng.LogNormal(0.1, 0.5)),
                Bits(std::lognormal_distribution<double>(0.1, 0.5)(e)));
      ASSERT_EQ(rng.Poisson(4.0), std::poisson_distribution<int64_t>(4.0)(e));
      ASSERT_EQ(rng.Poisson(40.0), std::poisson_distribution<int64_t>(40.0)(e));
      ASSERT_EQ(rng.Categorical(weights),
                std::discrete_distribution<size_t>(weights.begin(), weights.end())(e));
      ASSERT_EQ(rng.Bernoulli(0.3), ref.unit(e) < 0.3);
    }
    std::vector<int> shuffled(40), want(40);
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::iota(want.begin(), want.end(), 0);
    rng.Shuffle(&shuffled);
    for (size_t i = want.size(); i > 1; --i) {
      const auto j = std::uniform_int_distribution<int64_t>(0, static_cast<int64_t>(i) - 1)(e);
      std::swap(want[i - 1], want[static_cast<size_t>(j)]);
    }
    ASSERT_EQ(shuffled, want) << "seed " << seed;
    ASSERT_EQ(rng.Fork().seed(), e()) << "seed " << seed;
  }
}

/// `blob` with its engine position (the last token of the engine's line)
/// replaced by `position`.
std::string WithPosition(const std::string& blob, const std::string& position) {
  const size_t line_end = blob.find('\n', blob.find('\n') + 1);
  const size_t token = blob.rfind(' ', line_end) + 1;
  return blob.substr(0, token) + position + blob.substr(line_end);
}

TEST(Mt19937_64Test, RestoreRefusesPositionAbove312) {
  Rng rng(7);
  for (int i = 0; i < 40; ++i) (void)rng.Uniform();
  const std::string blob = rng.SerializeState();
  ASSERT_EQ(WithPosition(blob, "40"), blob);

  Rng target(11);
  const std::string before = target.SerializeState();
  for (const char* position : {"313", "400", "18446744073709551615"}) {
    const Status s = target.RestoreState(WithPosition(blob, position));
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << position;
    EXPECT_NE(s.message().find(position), std::string::npos) << s.message();
    EXPECT_EQ(target.SerializeState(), before) << "a refused restore changed the state";
  }
  // 312 is std's "block spent": the next draw twists the next block.
  const std::string spent_blob = WithPosition(blob, "312");
  Rng spent(7);
  ASSERT_TRUE(spent.RestoreState(spent_blob).ok());
  StdRng ref(7);
  std::istringstream in(spent_blob);
  in >> ref.seed >> ref.engine;
  ASSERT_FALSE(in.fail());
  for (int i = 0; i < 400; ++i) ASSERT_EQ(spent.engine()(), ref.engine());
}

TEST(Mt19937_64Test, RestoreRefusesEveryTruncatedBlob) {
  Rng fresh(7);
  Rng spare(7);
  (void)spare.Gaussian();
  for (const Rng* source : {&fresh, &spare}) {
    const std::string blob = source->SerializeState();
    Rng target(11);
    const std::string before = target.SerializeState();
    for (size_t n = 0; n < blob.size(); ++n) {
      ASSERT_EQ(target.RestoreState(blob.substr(0, n)).code(), StatusCode::kInvalidArgument)
          << "a blob cut to " << n << " of " << blob.size() << " bytes was accepted";
    }
    EXPECT_EQ(target.SerializeState(), before);
    EXPECT_TRUE(target.RestoreState(blob).ok());
  }
}

}  // namespace
}  // namespace kea
