#ifndef KEA_SIM_FAULT_INJECTOR_H_
#define KEA_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "telemetry/ingestion.h"
#include "telemetry/record.h"

namespace kea::sim {

/// How dirty the telemetry stream is. Models the Cosmos failure modes of
/// Section 3.2: a fleet with constant machine churn whose daily join pipeline
/// sees missing, duplicated, late and outright corrupt machine-hours. All
/// rates are per-record probabilities; a default-constructed profile injects
/// nothing.
struct FaultProfile {
  /// Record silently lost (collector died mid-hour).
  double drop_rate = 0.0;
  /// Record emitted twice (pipeline replay after a partial failure).
  double duplicate_rate = 0.0;
  /// One metric field replaced by NaN or +-Inf (corrupt join output).
  double non_finite_rate = 0.0;
  /// One metric pushed outside its valid range (negative count, util > 1).
  double out_of_range_rate = 0.0;
  /// One volume metric scaled by a large factor — still finite and positive,
  /// so only robust aggregation (winsorizing) catches it.
  double outlier_rate = 0.0;
  double outlier_scale = 50.0;
  /// Fraction of machines whose counters freeze: every record repeats the
  /// first metric payload observed for that machine.
  double stuck_machine_fraction = 0.0;
  /// Record delayed by 1..max_late_hours and re-emitted out of order.
  double late_rate = 0.0;
  int max_late_hours = 6;
  /// Per-attempt probability that an ingestion write fails transiently
  /// (exercises the RetryPolicy path).
  double transient_error_rate = 0.0;

  bool empty() const {
    return drop_rate == 0.0 && duplicate_rate == 0.0 && non_finite_rate == 0.0 &&
           out_of_range_rate == 0.0 && outlier_rate == 0.0 &&
           stuck_machine_fraction == 0.0 && late_rate == 0.0 &&
           transient_error_rate == 0.0;
  }

  /// No faults (the pass-through profile).
  static FaultProfile None() { return FaultProfile(); }

  /// The chaos-suite default: every fault mode on at moderate rates.
  static FaultProfile Moderate();
};

/// Deterministic corruption stage between the simulation engines and the
/// ingestion pipeline. Every per-record decision draws from an Rng::Split
/// substream keyed on (machine, hour), so the fault pattern for a given seed
/// is a pure function of the record's identity — independent of batch
/// boundaries, arrival order, or thread schedule.
class TelemetryFaultInjector {
 public:
  struct Counters {
    size_t seen = 0;
    size_t dropped = 0;
    size_t duplicated = 0;
    size_t made_non_finite = 0;
    size_t made_out_of_range = 0;
    size_t made_outlier = 0;
    size_t stuck_replayed = 0;  ///< Records overwritten by a frozen payload.
    size_t delayed = 0;
    size_t transient_errors = 0;
  };

  TelemetryFaultInjector(const FaultProfile& profile, uint64_t seed)
      : profile_(profile), seed_(seed) {}

  /// Applies drop/duplicate/corrupt/stuck/late faults to a freshly produced
  /// batch and returns the stream that "arrives" now: surviving records plus
  /// previously delayed records whose delay has expired (appended at the end,
  /// i.e. out of hour order).
  std::vector<telemetry::MachineHourRecord> Corrupt(telemetry::RecordView batch);

  /// Drains every still-delayed record (end of stream), oldest first.
  std::vector<telemetry::MachineHourRecord> Flush();

  /// Write hook for IngestionPipeline: attempt k of the c-th write fails with
  /// Status::Unavailable with probability transient_error_rate, decided by a
  /// substream keyed on (c, k) — deterministic and eventually succeeding for
  /// any rate < 1 given enough attempts.
  telemetry::WriteHook MakeWriteHook();

  const Counters& counters() const { return counters_; }
  const FaultProfile& profile() const { return profile_; }

  /// Bit-exact checkpoint of mutable state: counters, frozen stuck payloads,
  /// the delayed-record queue, watermark, and the write-hook call counter
  /// (which keys the deterministic transient-failure draws). The profile and
  /// seed are construction-time and not included.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, TelemetryFaultInjector& injector);

  /// Substream for the per-record fault draws.
  Rng RecordRng(const telemetry::MachineHourRecord& r, uint64_t salt) const;

  /// Whether a machine's counters freeze, drawn from a substream keyed on the
  /// machine alone: once per machine, then remembered.
  bool IsStuck(int machine_id);

  FaultProfile profile_;
  uint64_t seed_;
  Counters counters_;

  /// IsStuck's verdicts. A pure function of the seed and the machine, so
  /// not part of the serialized state.
  std::unordered_map<int, bool> stuck_verdict_;
  /// Frozen metric payload per stuck machine, captured at first sight.
  std::unordered_map<int, telemetry::MachineHourRecord> stuck_payload_;
  /// Delayed records keyed by release hour.
  std::map<HourIndex, std::vector<telemetry::MachineHourRecord>> delayed_;
  HourIndex watermark_ = -1;
  /// Write-hook call counter (grows monotonically; deterministic replay).
  uint64_t write_calls_ = 0;
};

}  // namespace kea::sim

#endif  // KEA_SIM_FAULT_INJECTOR_H_
