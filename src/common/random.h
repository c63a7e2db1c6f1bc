#ifndef KEA_COMMON_RANDOM_H_
#define KEA_COMMON_RANDOM_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <optional>
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
  friend class Rng;

  /// Puts each of lanes[0, n), 1 <= n <= 8, in the state the engine of its
  /// seed starts in, with the seeding words of its first eight draws
  /// computed. The n chains run side by side.
  static void SeedLanes(const uint64_t* seeds, Mt19937_64* const* lanes, size_t n);

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
/// Every sampler returns the bits libstdc++'s distribution of the same name
/// returns on the same engine. Uniform, Gaussian, LogNormal and Exponential
/// compute libstdc++'s algorithms directly, without its adaptors; the other
/// samplers call the std distributions. random_test checks each against std.
///
/// All KEA randomness flows through explicitly seeded Rng instances: runs are
/// reproducible given the seed, which the tests and benches rely on.
class Rng {
 public:
  /// Streams SeedMany seeds side by side.
  static constexpr size_t kSeedLanes = 8;

  explicit Rng(uint64_t seed = 42) : seed_(seed), engine_(seed) {}

  /// Puts each rngs[k], k < n, in the state Rng(seeds[k]) starts in. The
  /// seeding chains run eight side by side, with the seeding words of each
  /// stream's first eight draws computed, so the processor overlaps their
  /// multiplies: a keyed decision pays about a fifth of a lone stream's
  /// set-up. Reusing the same rngs avoids zeroing their 2.5 KB states again.
  static void SeedMany(const uint64_t* seeds, Rng* rngs, size_t n);

  /// Uniform double in [0, 1): std::generate_canonical<double, 53>'s
  /// result for the next 64-bit word u, round(u) / 2^64 with 1 replaced by
  /// the largest double below it. The two 32-bit halves convert exactly, and
  /// their sum hi * 2^32 + lo is u rounded once, as the u64 conversion
  /// rounds it; the scaling by 2^-64 is exact.
  double Uniform() {
    const uint64_t u = engine_();
    const double sum = static_cast<double>(static_cast<uint32_t>(u >> 32)) * 0x1p32 +
                       static_cast<double>(static_cast<uint32_t>(u));
    return std::min(sum * 0x1p-64, 0x1.fffffffffffffp-1);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal draw: std::normal_distribution's, which keeps the
  /// second value of each polar pair as the next draw. Its `g * 1 + 0`
  /// turns -0 into +0, hence the `+ 0.0`.
  double Gaussian() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_ + 0.0;
    }
    has_spare_ = true;
    return Polar(&spare_) + 0.0;
  }

  /// Normal draw with the given mean and standard deviation.
  double Gaussian(double mean, double stddev) { return mean + stddev * Gaussian(); }

  /// Exponential draw with the given rate (lambda > 0), as
  /// std::exponential_distribution computes it.
  double Exponential(double rate) {
    assert(rate > 0);
    return -std::log(1.0 - Uniform()) / rate;
  }

  /// Log-normal draw parameterized by the underlying normal's mu/sigma. A
  /// fresh std::lognormal_distribution's: its own normal draws a polar pair
  /// and drops the spare, so this leaves Gaussian's spare alone.
  double LogNormal(double mu, double sigma) {
    double dropped;
    return std::exp(sigma * (Polar(&dropped) + 0.0) + mu);
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
  /// spare Gaussian (engine state alone is not enough for bit-identical
  /// resume). Byte for byte the text the std stream operators write for a
  /// std::mt19937_64, a uniform_real_distribution(0, 1) and a
  /// normal_distribution(0, 1) holding the same state.
  std::string SerializeState() const;

  /// Restores state written by SerializeState(). After a successful restore
  /// the draw sequence continues exactly where the serialized generator was.
  /// Refuses a blob that ends early, whose engine position is above 312, or
  /// whose distribution parameters are not (0, 1); a refusal leaves this
  /// generator unchanged.
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
  /// One pair of Marsaglia's polar method, step for step as
  /// std::normal_distribution runs it: returns y * m and leaves the pair's
  /// other value, x * m, in *spare.
  double Polar(double* spare) {
    double x, y, r2;
    do {
      x = 2.0 * Uniform() - 1.0;
      y = 2.0 * Uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2 * std::log(r2) / r2);
    *spare = x * mult;
    return y * mult;
  }

  uint64_t seed_;
  Mt19937_64 engine_;
  double spare_ = 0.0;  ///< Gaussian's next draw, while has_spare_.
  bool has_spare_ = false;
};

/// Eight Rng lanes for a loop that makes one keyed decision per item, such
/// as a fault injector's per-record or per-machine draws: the items' streams
/// are seeded eight at a time (Rng::SeedMany) into lanes built once, not
/// once per decision.
class KeyedStreams {
 public:
  /// For each i in [0, n) in order whose key(i) holds a seed, calls
  /// decide(i, rng) with rng in the state Rng(*key(i)) starts in. key(i) runs
  /// before decide does for the up to seven items queued ahead of i, so it
  /// must not read what decide writes for other items.
  template <typename KeyFn, typename DecideFn>
  void ForEach(size_t n, KeyFn key, DecideFn decide) {
    size_t items[Rng::kSeedLanes];
    uint64_t seeds[Rng::kSeedLanes];
    size_t queued = 0;
    auto flush = [&] {
      Rng::SeedMany(seeds, lanes_, queued);
      for (size_t k = 0; k < queued; ++k) decide(items[k], lanes_[k]);
      queued = 0;
    };
    for (size_t i = 0; i < n; ++i) {
      const std::optional<uint64_t> seed = key(i);
      if (!seed.has_value()) continue;
      items[queued] = i;
      seeds[queued] = *seed;
      if (++queued == Rng::kSeedLanes) flush();
    }
    if (queued > 0) flush();
  }

 private:
  Rng lanes_[Rng::kSeedLanes];
};

}  // namespace kea

#endif  // KEA_COMMON_RANDOM_H_
