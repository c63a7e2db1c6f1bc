#ifndef KEA_TELEMETRY_INGESTION_H_
#define KEA_TELEMETRY_INGESTION_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "telemetry/store.h"

namespace kea::telemetry {

/// Why a record was diverted to the quarantine store instead of the main
/// TelemetryStore.
enum class QuarantineReason {
  kNonFinite = 0,     ///< NaN or +-Inf in a numeric field.
  kOutOfRange,        ///< Negative count / utilization outside [0, 1] / etc.
  kInconsistent,      ///< Fields that contradict each other (latency, no tasks).
  kDuplicate,         ///< (machine, hour) already ingested.
  kLate,              ///< Arrived more than max_lateness_hours behind watermark.
  kStuckCounter,      ///< Machine repeating an identical metric payload.
  kWriteFailed,       ///< Sink write failed even after retries.
};
constexpr size_t kNumQuarantineReasons = 7;

const char* QuarantineReasonToString(QuarantineReason reason);

/// A rejected record kept for inspection, with the reason and the watermark
/// at rejection time (operators triage quarantine dumps by reason).
struct QuarantinedRecord {
  MachineHourRecord record;
  QuarantineReason reason = QuarantineReason::kNonFinite;
  sim::HourIndex watermark = 0;
};

template <typename Ar>
void Persist(Ar& ar, QuarantinedRecord& q) {
  ar(q.record);
  ar.Enum(q.reason, QuarantineReason::kWriteFailed);
  ar(q.watermark);
}

/// The (machine, hour) keys an IngestionPipeline has accepted, one bit per
/// key. Each machine keeps a bitmap of 64-hour words, holding only the words
/// that have a key, in hour order. Memory is therefore O(keys) for any
/// machine ids and hours, corrupted ones included: at most one 16-byte word
/// per key, and a 64th of that for a machine that reports every hour.
/// Machines and hours are read as unsigned 32-bit values, the order of the
/// persisted key list.
class DedupIndex {
 public:
  bool Contains(int machine, sim::HourIndex hour) const;
  /// Adds the key; false when it was already present.
  bool Insert(int machine, sim::HourIndex hour);
  size_t size() const { return size_; }

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, DedupIndex& index);

  /// Hours [64 * block, 64 * block + 64), bit i for hour 64 * block + i.
  struct Word {
    uint32_t block = 0;
    uint64_t bits = 0;
  };

  /// Position of the word for `block` in `words`, or where it would go.
  static size_t WordAt(const std::vector<Word>& words, uint32_t block);
  bool Insert(uint32_t machine, uint32_t hour);
  /// Every key as (machine << 32) | hour, ascending.
  std::vector<uint64_t> SortedKeys() const;

  std::unordered_map<uint32_t, std::vector<Word>> machines_;
  size_t size_ = 0;
};

/// Pluggable sink write. `attempt` is the 0-based retry attempt; the fault
/// injector's hook uses it to decide which attempts fail transiently. The
/// default hook always succeeds. A hook returning OK means the pipeline may
/// append the record to the sink.
using WriteHook = std::function<Status(const MachineHourRecord& record, int attempt)>;

/// The validating front door to TelemetryStore: everything the simulation
/// engines (or an external trace) emit passes through here before KEA's
/// models may see it. Production telemetry is dirty — machine churn drops
/// hours, pipeline replays duplicate them, broken collectors emit NaNs and
/// stuck counters (Section 3.2) — so the pipeline:
///
///   - enforces schema/range invariants (finite, non-negative, util in [0,1]);
///   - deduplicates on (machine, hour);
///   - bounds lateness against a high-watermark and quarantines stragglers;
///   - detects stuck-counter machines (identical metric payload repeated);
///   - retries transient sink failures under a bounded, deterministically
///     jittered RetryPolicy, quarantining (never dropping) on exhaustion.
///
/// Invariant, checked by the property tests: every input record is counted
/// exactly once — accepted() + quarantined() == seen(). With clean input and
/// default options the pipeline is a bit-identical pass-through to
/// TelemetryStore::Append, preserving record order.
class IngestionPipeline {
 public:
  struct Options {
    /// Schema/range validation (kNonFinite / kOutOfRange / kInconsistent).
    bool validate = true;
    /// Reject (machine, hour) pairs already accepted.
    bool deduplicate = true;
    /// Records older than watermark - max_lateness_hours are quarantined as
    /// kLate; negative disables the lateness bound entirely.
    int max_lateness_hours = -1;
    /// Quarantine a machine's records once it has repeated the exact same
    /// metric payload this many times in a row (0 disables). The first
    /// `stuck_run_threshold` copies are accepted — a stuck counter is only
    /// detectable in hindsight.
    int stuck_run_threshold = 0;
    /// Retry policy for transient sink-write failures.
    RetryPolicy::Options retry;
  };

  struct Counters {
    size_t seen = 0;
    size_t accepted = 0;
    size_t quarantined = 0;
    std::array<size_t, kNumQuarantineReasons> by_reason{};
    /// Transient write failures observed (each consumed one retry attempt).
    size_t transient_write_failures = 0;

    size_t Reason(QuarantineReason r) const {
      return by_reason[static_cast<size_t>(r)];
    }
  };

  /// `sink` must outlive the pipeline.
  IngestionPipeline(TelemetryStore* sink, const Options& options)
      : sink_(sink), options_(options), retry_(options.retry) {}

  /// Installs a fallible write hook (e.g. the fault injector's transient
  /// failure hook). Null restores the always-OK default.
  void set_write_hook(WriteHook hook) { write_hook_ = std::move(hook); }

  /// Runs the batch through validation, dedup, lateness and stuck-counter
  /// screens, then writes survivors to the sink under the retry policy.
  /// Always processes the whole batch; the returned status is only non-OK for
  /// structural errors (null sink), never for bad records — those are
  /// quarantined and counted instead.
  Status Ingest(RecordView batch);

  const Counters& counters() const { return counters_; }
  const std::vector<QuarantinedRecord>& quarantine() const { return quarantine_; }
  const RetryPolicy& retry_policy() const { return retry_; }
  /// Highest hour accepted so far (lateness reference). -1 before any accept.
  sim::HourIndex watermark() const { return watermark_; }

  /// Bit-exact checkpoint of the pipeline's mutable state: counters,
  /// quarantine contents, dedup index, watermark, stuck-counter tracking, and
  /// retry-policy counters (whose call index feeds the deterministic jitter).
  /// Options and the sink binding are construction-time and not included.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, IngestionPipeline& pipeline);

  /// Validation verdict for one record, OK reasons aside.
  bool Validate(const MachineHourRecord& r, QuarantineReason* reason) const;
  void Quarantine(const MachineHourRecord& r, QuarantineReason reason);

  TelemetryStore* sink_;
  Options options_;
  RetryPolicy retry_;
  WriteHook write_hook_;

  Counters counters_;
  std::vector<QuarantinedRecord> quarantine_;
  DedupIndex seen_keys_;
  sim::HourIndex watermark_ = -1;

  /// Stuck-counter tracking: per machine, the last metric payload (its 14
  /// metric fields' bit patterns) and how many consecutive records carried
  /// it. A checkpoint saves the words, so a restored pipeline compares its
  /// next record exactly as a running one does.
  struct StuckState {
    std::array<uint64_t, 14> words{};
    int run_length = 0;

    template <typename Ar>
    friend void Persist(Ar& ar, StuckState& state) {
      ar(state.words, state.run_length);
    }
  };
  std::unordered_map<int, StuckState> stuck_;
};

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_INGESTION_H_
