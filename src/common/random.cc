#include "common/random.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace kea {
namespace {

// MT19937-64's parameters: the twist's middle offset, its matrix and the
// seeding multiplier.
constexpr uint32_t kMiddle = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kSeedMultiplier = 6364136223846793005ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;

/// One twisted word: the upper 33 bits of `word` and the lower 31 of `next`,
/// shifted and folded into the word `kMiddle` places on. The matrix is
/// masked in, not branched on: y's low bit is a coin flip.
inline uint64_t Twist(uint64_t word, uint64_t next, uint64_t middle) {
  const uint64_t y = (word & kUpperMask) | (next & ~kUpperMask);
  return middle ^ (y >> 1) ^ (kMatrixA & (0 - (y & 1)));
}

}  // namespace

void Mt19937_64::Refill() {
  if (twisted_ == kStateWords) {
    TwistFrom(0);
    p_ = 0;
    return;
  }
  // The first block, p_ == twisted_: word k needs seeding words k, k + 1 and
  // k + kMiddle, none of them twisted yet.
  if (twisted_ < kLazyDraws) {
    SeedThrough(twisted_ + kMiddle + 1);
    x_[twisted_] = Twist(x_[twisted_], x_[twisted_ + 1], x_[twisted_ + kMiddle]);
    ++twisted_;
    return;
  }
  SeedThrough(kStateWords);
  TwistFrom(twisted_);
}

void Mt19937_64::SeedThrough(uint32_t end) {
  if (end <= seeded_) return;
  // The chain stays in a register: reloading each word from the store just
  // made would add a store-to-load forward to every step.
  uint64_t word = x_[seeded_ - 1];
  for (uint32_t i = seeded_; i < end; ++i) {
    word = kSeedMultiplier * (word ^ (word >> 62)) + i;
    x_[i] = word;
  }
  seeded_ = end;
}

void Mt19937_64::TwistFrom(uint32_t from) {
  uint32_t k = from;
  for (; k < kStateWords - kMiddle; ++k) x_[k] = Twist(x_[k], x_[k + 1], x_[k + kMiddle]);
  for (; k < kStateWords - 1; ++k) {
    x_[k] = Twist(x_[k], x_[k + 1], x_[k - (kStateWords - kMiddle)]);
  }
  x_[kStateWords - 1] = Twist(x_[kStateWords - 1], x_[0], x_[kMiddle - 1]);
  twisted_ = kStateWords;
}

void Mt19937_64::Write(std::ostream& out) const {
  // std's text holds a finished block: a lazily seeded one is finished in a
  // copy. Before the first draw that is the seeding words at position 312,
  // where the next draw twists them.
  Mt19937_64 full(*this);
  full.SeedThrough(kStateWords);
  if (full.twisted_ == 0) {
    full.p_ = kStateWords;
  } else if (full.twisted_ < kStateWords) {
    full.TwistFrom(full.twisted_);
  }
  const std::ios_base::fmtflags flags = out.flags(std::ios_base::dec);
  for (uint64_t word : full.x_) out << word << ' ';
  out << full.p_;
  out.flags(flags);
}

Status Mt19937_64::Read(std::istream& in) {
  uint64_t words[kStateWords] = {};
  uint64_t position = 0;
  for (uint64_t& word : words) in >> word;
  in >> position;
  if (in.fail()) return Status::InvalidArgument("malformed Rng state blob");
  if (position > kStateWords) {
    return Status::InvalidArgument("Rng state position " + std::to_string(position) +
                                   " is above the 312-word block");
  }
  std::copy(std::begin(words), std::end(words), x_);
  p_ = static_cast<uint32_t>(position);
  twisted_ = kStateWords;
  seeded_ = kStateWords;
  return Status::OK();
}

std::string Rng::SerializeState() const {
  std::ostringstream out;
  out << seed_ << '\n';
  engine_.Write(out);
  out << '\n' << unit_ << '\n' << normal_ << '\n';
  return out.str();
}

Status Rng::RestoreState(const std::string& state) {
  std::istringstream in(state);
  uint64_t seed = 0;
  Mt19937_64 engine(0);
  std::uniform_real_distribution<double> unit;
  std::normal_distribution<double> normal;
  in >> seed;
  KEA_RETURN_IF_ERROR(engine.Read(in));
  in >> unit >> normal;
  // SerializeState ends the blob with a newline: without it the last field
  // may have lost digits.
  if (in.fail() || in.get() != '\n') {
    return Status::InvalidArgument("malformed Rng state blob");
  }
  seed_ = seed;
  engine_ = engine;
  unit_ = unit;
  normal_ = normal;
  return Status::OK();
}

}  // namespace kea
