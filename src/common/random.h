#ifndef KEA_COMMON_RANDOM_H_
#define KEA_COMMON_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace kea {

/// SplitMix64-style finalizer that derives an independent substream seed from
/// a (seed, stream id) pair. Pure function of its inputs, so substream i of a
/// given seed is the same on every call, on every thread, in every process.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream_id) {
  uint64_t z = seed ^ (0x9E3779B97F4A7C15ULL * (stream_id + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// MT19937-64 (Matsumoto & Nishimura) with std::mt19937_64's exact output
/// sequence and operator<< text, whose first block is seeded lazily.
///
/// std::mt19937_64 computes all 312 seeding words and twists all 312 before
/// its first draw, which a keyed substream making a handful of draws pays in
/// full. Twisting word k < 156 reads only the untwisted words k, k + 1 and
/// k + 156, so here draw k of the first block computes the seeding words up
/// to k + 156 and twists word k alone. After kLazyDraws draws the rest of the
/// block is seeded and twisted in one pass, so a long stream costs no more
/// than std's; every later block is twisted whole, as std's is.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr uint32_t kStateWords = 312;
  /// Draws served one twisted word at a time before the first block is
  /// finished in bulk.
  static constexpr uint32_t kLazyDraws = 32;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) { x_[0] = seed; }

  result_type operator()() {
    if (p_ == twisted_) Refill();
    result_type z = x_[p_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Writes std::mt19937_64's operator<< text for the same state: the 312
  /// state words, then the position, each followed by a space but the last.
  void Write(std::ostream& out) const;

  /// Reads the text Write() (or std::mt19937_64's operator<<) produces.
  /// Refuses a text that ends early and, by name, a position above 312;
  /// either way this engine is left unchanged.
  Status Read(std::istream& in);

 private:
  /// Makes word p_ available: twists the next block once this one is spent,
  /// or advances the lazily seeded first block.
  void Refill();
  /// Computes the seeding words [seeded_, end).
  void SeedThrough(uint32_t end);
  /// Twists words [from, 312) of a block whose words [0, from) are twisted.
  void TwistFrom(uint32_t from);

  /// Value-initialised, so a copy of a lazily seeded engine reads no unset
  /// word.
  uint64_t x_[kStateWords]{};
  uint32_t p_ = 0;        ///< Index of the next word to output.
  uint32_t twisted_ = 0;  ///< Words [0, twisted_) hold the current block.
  uint32_t seeded_ = 1;   ///< Seeding words [0, seeded_) are computed.
};

/// Deterministic pseudo-random generator used across the simulator and the
/// Monte-Carlo machinery: an MT19937-64 engine (Mt19937_64, the draws of
/// std::mt19937_64) with convenience samplers so call sites don't
/// instantiate distribution objects.
///
/// All KEA randomness flows through explicitly seeded Rng instances: runs are
/// reproducible given the seed, which the tests and benches rely on.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : seed_(seed), engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double Gaussian() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// Exponential draw with the given rate (lambda > 0).
  double Exponential(double rate) {
    assert(rate > 0);
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Log-normal draw parameterized by the underlying normal's mu/sigma.
  double LogNormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Pareto draw with scale x_m > 0 and shape alpha > 0 (heavy-tailed work).
  double Pareto(double x_m, double alpha) {
    assert(x_m > 0 && alpha > 0);
    double u = 1.0 - Uniform();  // in (0, 1]
    return x_m / std::pow(u, 1.0 / alpha);
  }

  /// Poisson draw with the given mean.
  int64_t Poisson(double mean) {
    assert(mean >= 0);
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  /// Bernoulli draw with success probability p in [0, 1].
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights) {
    return std::discrete_distribution<size_t>(weights.begin(), weights.end())(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// machine / worker its own stream. Consumes one draw from this stream, so
  /// successive Fork() calls yield different children.
  Rng Fork() { return Rng(engine_()); }

  /// Derives the substream identified by `stream_id`. Unlike Fork(), this is
  /// a pure function of (constructor seed, stream_id): it does not advance
  /// this generator, and the substream's draw sequence is independent of how
  /// many draws the parent has made. This is what makes parallel loops
  /// deterministic — each logical task splits off its own stream by index
  /// and gets the same draws no matter which thread runs it, or when.
  Rng Split(uint64_t stream_id) const { return Rng(MixSeed(seed_, stream_id)); }

  /// The seed this generator was constructed with (substream derivation key).
  uint64_t seed() const { return seed_; }

  Mt19937_64& engine() { return engine_; }

  /// Serializes the full generator state — seed, engine position, AND the
  /// distribution objects (std::normal_distribution caches a spare Gaussian
  /// between draws, so engine state alone is not enough for bit-identical
  /// resume). Text format of the standard stream operators, byte for byte
  /// what the same state held in a std::mt19937_64 writes.
  std::string SerializeState() const;

  /// Restores state written by SerializeState(). After a successful restore
  /// the draw sequence continues exactly where the serialized generator was.
  /// Refuses a blob that ends early or whose engine position is above 312.
  Status RestoreState(const std::string& state);

  /// The state archive's field (common/snapshot.h): SerializeState's text
  /// as one string, so a checkpoint's engine section keeps its bytes.
  template <typename Ar>
  friend void Persist(Ar& ar, Rng& rng) {
    std::string text = Ar::kReading ? std::string() : rng.SerializeState();
    ar(text);
    if constexpr (Ar::kReading) {
      if (ar.ok()) ar.Fail(rng.RestoreState(text));
    }
  }

 private:
  uint64_t seed_;
  Mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace kea

#endif  // KEA_COMMON_RANDOM_H_
