#ifndef KEA_TELEMETRY_DRIFT_DETECTOR_H_
#define KEA_TELEMETRY_DRIFT_DETECTOR_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "ml/stats.h"
#include "sim/types.h"
#include "telemetry/store.h"

namespace kea::telemetry {

/// Change-point monitoring over the machine-hour stream — KEA's early warning
/// that the environment its What-if models were fitted on no longer exists.
/// It watches hourly fleet aggregates (machines reporting, utilization, task
/// latency, queue latency, throughput) through per-metric Page-Hinkley
/// detectors, plus a staleness clock that fires when telemetry stops arriving
/// altogether. Alarms feed the core::ModelHealth circuit breaker; the
/// detector itself never looks at models or configs.
///
/// The detector reads the store incrementally through a cursor, so repeated
/// CatchUp calls cost O(new records), not O(store).
class DriftDetector {
 public:
  /// The monitored per-hour fleet aggregates, in stream-index order.
  enum Metric : size_t {
    kMachinesReporting = 0,  ///< Records per hour (crashes → gaps).
    kUtilization,            ///< Mean cpu_utilization.
    kTaskLatency,            ///< Mean avg_task_latency_s over active machines.
    kQueueLatency,           ///< Mean queue_latency_ms.
    kThroughput,             ///< Mean tasks_finished per machine.
    kNumMetrics,
  };

  struct Options {
    /// The drift detector's Page-Hinkley defaults differ from the class
    /// defaults in one way: min_stddev doubles as a *practical-significance
    /// floor*. Seasonal differencing leaves a near-noiseless stream of
    /// relative week-on-week changes, so the standardization divisor floors
    /// at 0.05 — shifts under ~5% of the metric's level (KEA's own
    /// conservative config deployments, clamped by guardrails) never
    /// accumulate fast enough to alarm, while fleet faults (double-digit
    /// machine loss, inflated latencies) stand several floors tall.
    static ml::PageHinkleyDetector::Options DefaultPageHinkley() {
      ml::PageHinkleyDetector::Options o;
      o.min_stddev = 0.05;
      return o;
    }

    /// Shared Page-Hinkley parameterization for every metric stream (inputs
    /// are standardized, so one setting fits counts and fractions alike).
    ml::PageHinkleyDetector::Options page_hinkley = DefaultPageHinkley();
    /// Hours without any new telemetry before the staleness alarm fires.
    int staleness_hours = 48;
    /// Seasonal differencing period: each detector observes the *relative*
    /// change (x[t] - x[t - period]) / x[t - period], so any recurring
    /// pattern with this period (diurnal + weekly load cycles) cancels
    /// exactly, while a regime change shows up as a period-long pulse. The
    /// first period of data only primes the baseline (nothing is fed).
    /// 0 feeds raw values — only sensible for streams with no seasonal
    /// structure.
    int seasonal_period_hours = sim::kHoursPerWeek;
  };

  struct Alarm {
    std::string metric;      ///< Metric name, or "staleness".
    sim::HourIndex hour = 0; ///< Hour whose aggregate fired the alarm.
    double drift = 0.0;      ///< Cumulative drift at the alarm (sigma units).
  };

  DriftDetector() : DriftDetector(Options()) {}
  explicit DriftDetector(const Options& options);

  /// Consumes records appended to `store` since the last call, folds them
  /// into hourly aggregates, feeds completed hours to the detectors, and
  /// returns the alarms that fired. An hour is fed once the cursor moves past
  /// it; records for hours at or below the fed watermark (late arrivals) are
  /// counted but not re-fed.
  std::vector<Alarm> CatchUp(const TelemetryStore& store);

  /// Staleness check against the session clock: alarms when no telemetry has
  /// been observed for staleness_hours. Fires at most once per dry spell.
  std::vector<Alarm> CheckStaleness(sim::HourIndex now);

  /// True once any alarm has fired since the last Rearm().
  bool drifting() const { return drifting_; }

  /// Clears alarm state, resets every detector and the seasonal baselines —
  /// called after a model refit passes validation, making the post-drift
  /// regime the new baseline. (The next period of data re-primes the
  /// baselines; residual tracking covers the window in between.)
  void Rearm();

  static const char* MetricName(size_t metric);
  /// Alarms fired per metric since construction (Rearm does not clear).
  const std::array<size_t, kNumMetrics>& alarm_counts() const {
    return alarm_counts_;
  }
  size_t staleness_alarms() const { return staleness_alarms_; }
  sim::HourIndex last_data_hour() const { return last_data_hour_; }
  /// Largest current drift across metric streams, in sigma units.
  double max_drift() const;

  /// Bit-exact checkpoint of cursor, aggregates-in-flight, detector states
  /// and alarm bookkeeping. Options are construction-time.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  struct HourAgg {
    sim::HourIndex hour = 0;
    size_t records = 0;
    size_t active = 0;  ///< Records with tasks_finished > 0.
    double util_sum = 0.0;
    double latency_sum = 0.0;
    double queue_sum = 0.0;
    double tasks_sum = 0.0;

    template <typename Ar>
    friend void Persist(Ar& ar, HourAgg& a) {
      ar(a.hour, a.records, a.active, a.util_sum, a.latency_sum, a.queue_sum,
         a.tasks_sum);
    }
  };
  template <typename Ar>
  friend void Persist(Ar& ar, DriftDetector& detector);

  void FeedHour(const HourAgg& agg, std::vector<Alarm>* alarms);
  void ResetSeasonalBaseline();

  Options options_;
  std::array<ml::PageHinkleyDetector, kNumMetrics> detectors_;
  std::array<size_t, kNumMetrics> alarm_counts_{};
  size_t staleness_alarms_ = 0;
  uint64_t cursor_ = 0;             ///< Store records consumed so far.
  sim::HourIndex fed_watermark_ = -1;  ///< Highest hour already fed.
  sim::HourIndex last_data_hour_ = -1;
  bool drifting_ = false;
  bool stale_alarmed_ = false;
  std::vector<HourAgg> pending_;    ///< Hours aggregated but not yet fed.

  /// Seasonal baselines for differencing, indexed [metric][hour % period];
  /// the filled flag distinguishes "no prior week yet" from a stored 0.
  std::array<std::vector<double>, kNumMetrics> season_value_;
  std::array<std::vector<uint8_t>, kNumMetrics> season_filled_;
};

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_DRIFT_DETECTOR_H_
