#ifndef KEA_COMMON_RETRY_H_
#define KEA_COMMON_RETRY_H_

#include <cstdint>
#include <functional>

#include "common/random.h"
#include "common/status.h"

namespace kea {

/// Bounded exponential backoff with deterministic jitter, used to wrap
/// transient failures on the telemetry ingestion path (the production data
/// orchestration pipeline retries flaky Cosmos reads the same way).
///
/// Two properties matter here:
///
///   1. **Bounded.** A retry loop in a tuning system must never spin forever:
///      after `max_attempts` the operation fails permanently and the caller
///      decides (the ingestion pipeline quarantines the record instead of
///      blocking the loop).
///   2. **Deterministic.** The jitter on attempt `a` of the policy's `c`-th
///      wrapped call is a pure function of (seed, c, a) via Rng::Split-style
///      seed mixing, so a simulated run replays bit-identically — retries and
///      all — given the seed. Nothing actually sleeps: the simulator has no
///      wall clock, so backoff is accounted in virtual milliseconds via
///      stats().
class RetryPolicy {
 public:
  struct Options {
    /// Total tries per operation, including the first. Must be >= 1.
    int max_attempts = 4;
    /// Backoff before retry r (1-based) is
    /// min(initial_backoff_ms * multiplier^(r-1), max_backoff_ms),
    /// scaled by a jitter factor in [1 - jitter, 1 + jitter].
    double initial_backoff_ms = 10.0;
    double backoff_multiplier = 2.0;
    double max_backoff_ms = 1000.0;
    double jitter = 0.2;
    /// Substream key for the deterministic jitter draws.
    uint64_t seed = 42;
  };

  struct Stats {
    int64_t calls = 0;              ///< Run() invocations.
    int64_t attempts = 0;           ///< Total operation attempts.
    int64_t retries = 0;            ///< Attempts beyond the first.
    int64_t exhausted = 0;          ///< Calls that failed all attempts.
    double total_backoff_ms = 0.0;  ///< Virtual time spent backing off.
  };

  RetryPolicy() : RetryPolicy(Options()) {}
  explicit RetryPolicy(const Options& options) : options_(options) {}

  /// True for codes worth retrying: the failure is expected to clear on its
  /// own (overloaded or momentarily unreachable ingestion sink).
  static bool IsTransient(StatusCode code) {
    return code == StatusCode::kUnavailable ||
           code == StatusCode::kResourceExhausted;
  }

  /// Runs `op` (which receives the 0-based attempt index) until it returns OK,
  /// a non-transient error, or attempts are exhausted — whichever comes first.
  /// Returns the last status. Exhaustion returns the final transient error.
  Status Run(const std::function<Status(int attempt)>& op);

  /// Jittered backoff in virtual ms before retry `retry_index` (1-based) of
  /// call `call_index` (0-based). Pure function of (seed, call, retry).
  double BackoffMs(uint64_t call_index, int retry_index) const;

  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  /// Restores counters from a checkpoint. stats_.calls doubles as the call
  /// index feeding the deterministic jitter, so a resumed pipeline must put
  /// it back for retries to replay bit-identically.
  void RestoreStats(const Stats& stats) { stats_ = stats; }

 private:
  /// The state archive's field list (common/snapshot.h): the stats only;
  /// options are construction-time.
  template <typename Ar>
  friend void Persist(Ar& ar, RetryPolicy& policy) {
    Stats& s = policy.stats_;
    ar(s.calls, s.attempts, s.retries, s.exhausted, s.total_backoff_ms);
  }

  Options options_;
  Stats stats_;
};

}  // namespace kea

#endif  // KEA_COMMON_RETRY_H_
