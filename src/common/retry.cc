#include "common/retry.h"

#include <algorithm>
#include <cmath>

namespace kea {

double RetryPolicy::BackoffMs(uint64_t call_index, int retry_index) const {
  double base = options_.initial_backoff_ms *
                std::pow(options_.backoff_multiplier, retry_index - 1);
  base = std::min(base, options_.max_backoff_ms);
  // One substream per (call, retry): the jitter draw is independent of how
  // many other calls or retries happened before it.
  Rng jitter_rng(MixSeed(options_.seed,
                         call_index * kMaxAttempts + static_cast<uint64_t>(retry_index)));
  double factor = 1.0 + options_.jitter * jitter_rng.Uniform(-1.0, 1.0);
  return base * std::max(factor, 0.0);
}

Status RetryPolicy::Run(const std::function<Status(int attempt)>& op) {
  uint64_t call_index = static_cast<uint64_t>(stats_.calls);
  ++stats_.calls;
  Status last = Status::Internal("retry policy ran zero attempts");
  int max_attempts = std::max(options_.max_attempts, 1);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++stats_.attempts;
    if (attempt > 0) {
      ++stats_.retries;
      stats_.total_backoff_ms += BackoffMs(call_index, attempt);
    }
    last = op(attempt);
    if (last.ok() || !IsTransient(last.code())) return last;
  }
  ++stats_.exhausted;
  return last;
}

}  // namespace kea
