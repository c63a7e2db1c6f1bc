// ml-internal: the exact radix select shared by MedianAbs (regression.cc)
// and Quantile (stats.cc). Not part of the ml API.

#ifndef KEA_ML_RADIX_SELECT_H_
#define KEA_ML_RADIX_SELECT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace kea::ml::internal {

/// Bits per digit of the radix select. The first digit is the exponent,
/// bits 52-62 (bit 63, the sign, is clear in every key); the rest slice the
/// mantissa 11 bits at a time, the last slice 8 bits.
constexpr int kDigitBits = 11;
constexpr int kTopShift = 63 - kDigitBits;
/// A bucket this small finishes with one nth_element.
constexpr size_t kSelectTail = 32;

using DigitCounts = std::array<uint32_t, size_t{1} << kDigitBits>;

/// A value's select key: its bit pattern. For doubles whose sign bit is
/// clear and that are not NaN, the unsigned order of the keys is the values'
/// order, and equal values have equal keys.
inline uint64_t SelectKey(uint64_t key) { return key; }
inline uint64_t SelectKey(double v) { return std::bit_cast<uint64_t>(v); }

/// The keys of ranks k - 1 and k (0 < k < n) of items[0, n) in unsigned key
/// order, by most-significant-digit radix select; `counts` holds the
/// histogram of the keys' first digit. The items that share the digits
/// chosen so far hold a contiguous run of ranks. Each level finds the bucket
/// of its next digit that holds rank k and keeps only that bucket while rank
/// k - 1 is in it too. Once rank k is its bucket's smallest key, rank k - 1
/// is the largest key of the buckets below, and one pass takes both.
/// Reorders items and overwrites counts.
template <typename T>
std::pair<uint64_t, uint64_t> SelectMiddle(T* items, size_t n, size_t k,
                                           DigitCounts& counts) {
  int width = kDigitBits;
  int shift = kTopShift;
  uint64_t prefix = 0;  // The digits chosen so far.
  while (true) {
    const uint64_t mask = (uint64_t{1} << width) - 1;
    uint64_t digit = 0;
    while (counts[digit] <= k) k -= counts[digit++];
    prefix = prefix << width | digit;
    if (k == 0) {
      uint64_t lower = 0, upper = ~uint64_t{0};
      for (size_t i = 0; i < n; ++i) {
        const uint64_t key = SelectKey(items[i]);
        const uint64_t d = key >> shift & mask;
        upper = std::min(upper, d == digit ? key : ~uint64_t{0});
        lower = std::max(lower, d < digit ? key : 0);
      }
      return {lower, upper};
    }
    if (shift == 0) return {prefix, prefix};  // Every bit chosen: one value.
    const size_t bucket = counts[digit];
    const int next_width = std::min(kDigitBits, shift);
    const int next_shift = shift - next_width;
    const uint64_t next_mask = (uint64_t{1} << next_width) - 1;
    std::fill_n(counts.begin(), next_mask + 1, 0u);
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      const T item = items[i];
      const uint64_t key = SelectKey(item);
      const bool in_bucket = (key >> shift & mask) == digit;
      items[kept] = item;
      kept += in_bucket;
      counts[key >> next_shift & next_mask] += in_bucket;
    }
    n = bucket;
    if (n <= kSelectTail) {
      const auto by_key = [](T a, T b) { return SelectKey(a) < SelectKey(b); };
      std::nth_element(items, items + k, items + n, by_key);
      return {SelectKey(*std::max_element(items, items + k, by_key)),
              SelectKey(items[k])};
    }
    width = next_width;
    shift = next_shift;
  }
}

}  // namespace kea::ml::internal

#endif  // KEA_ML_RADIX_SELECT_H_
