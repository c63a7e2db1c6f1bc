#ifndef KEA_TELEMETRY_PERF_MONITOR_H_
#define KEA_TELEMETRY_PERF_MONITOR_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "telemetry/store.h"

namespace kea::telemetry {

/// Machine-group aggregate of the Table 2 performance metrics over a set of
/// machine-hour records.
struct GroupMetrics {
  sim::MachineGroupKey group;
  size_t machine_hours = 0;
  int num_machines = 0;  ///< Distinct machines observed.

  double avg_running_containers = 0.0;
  double avg_cpu_utilization = 0.0;
  double avg_tasks_per_hour = 0.0;
  double avg_data_read_mb_per_hour = 0.0;
  /// Task-weighted mean task latency (seconds).
  double avg_task_latency_s = 0.0;
  double bytes_per_second = 0.0;    ///< Total MB / total execution seconds.
  double bytes_per_cpu_time = 0.0;  ///< Total MB / total core-seconds.
  double avg_queued_containers = 0.0;
  double p99_queue_latency_ms = 0.0;
  double avg_power_watts = 0.0;
};

/// One (x, y) point of the scatter view (Figure 8).
struct ScatterPoint {
  double x = 0.0;
  double y = 0.0;
  sim::MachineGroupKey group;
};

/// Robustness knobs for the aggregate queries. The defaults reproduce the
/// plain (non-robust) aggregation bit for bit; the guarded tuning loop turns
/// both on so a few corrupt survivors cannot skew the What-if fits.
struct AggregationOptions {
  /// Groups with fewer matching machine-hours than this are excluded from
  /// the result (too thin to fit or trust). 0 keeps every group.
  size_t min_support = 0;
  /// Two-sided winsorization fraction in [0, 0.5): each averaged metric has
  /// its values clamped to the [f, 1-f] empirical quantiles before summing,
  /// bounding the leverage of any single machine-hour. 0 disables.
  double winsorize_fraction = 0.0;
};

/// The Performance Monitor joins raw telemetry into the metrics KEA's
/// modeling consumes (Section 4.1). All queries take an optional filter so
/// flighting/experiment analyses can scope to machine subsets or windows.
///
/// Every aggregate guards its ratios (zero tasks, zero execution seconds,
/// zero core-seconds, empty groups) and skips records with non-finite fields,
/// so no query output ever contains NaN/Inf — even over a store filled by an
/// unvalidated path.
class PerformanceMonitor {
 public:
  /// `store` must outlive the monitor.
  explicit PerformanceMonitor(const TelemetryStore* store) : store_(store) {}

  /// Per-group Table 2 aggregates. FailedPrecondition when no records match
  /// (or none survive min_support screening).
  StatusOr<std::map<sim::MachineGroupKey, GroupMetrics>> GroupMetricsByKey(
      const RecordFilter& filter = nullptr) const;

  /// Robust variant: min-support screening plus winsorized means.
  StatusOr<std::map<sim::MachineGroupKey, GroupMetrics>> GroupMetricsByKey(
      const RecordFilter& filter, const AggregationOptions& options) const;

  /// Cluster-wide average CPU utilization per hour (Figure 1).
  StatusOr<std::vector<std::pair<sim::HourIndex, double>>> HourlyClusterUtilization(
      const RecordFilter& filter = nullptr) const;

  /// Scatter view: one point per machine-hour, x = cpu utilization,
  /// y = data read (Figure 8). Subsampled to at most `max_points`.
  std::vector<ScatterPoint> UtilizationThroughputScatter(
      size_t max_points, const RecordFilter& filter = nullptr) const;

  /// The overall average task latency W-bar of Eq. (9): the task-weighted
  /// mean latency across all matching machine-hours.
  StatusOr<double> ClusterAverageTaskLatency(const RecordFilter& filter = nullptr) const;

  /// Total data read in MB over matching records.
  double TotalDataReadMb(const RecordFilter& filter = nullptr) const;

  /// Total tasks finished over matching records.
  double TotalTasksFinished(const RecordFilter& filter = nullptr) const;

 private:
  const TelemetryStore* store_;
};

/// Convenience filters (HourRangeFilter and AndFilter live in store.h).
RecordFilter MachineSetFilter(std::vector<int> machine_ids);
RecordFilter GroupFilter(sim::MachineGroupKey key);

/// Rolls hourly records up to machine-days (the production pipeline prepares
/// metrics "at a daily basis"; each dot of Figure 9 is a machine-day).
/// Averages the level metrics (containers, utilization, latency via task
/// weighting) and sums the volume metrics (tasks, data, cpu-time); the
/// `hour` field of each output record holds the day index. Records matching
/// `filter` only.
std::vector<MachineHourRecord> RollUpDaily(const TelemetryStore& store,
                                           const RecordFilter& filter = nullptr);

/// Data-quality screen (production data preparation): drops records with
/// impossible metrics — negative counts, utilization outside [0, 1], NaNs,
/// latency but no tasks. Returns the clean records and reports how many were
/// dropped via `dropped` (optional).
std::vector<MachineHourRecord> ScreenRecords(const std::vector<MachineHourRecord>& records,
                                             size_t* dropped = nullptr);

}  // namespace kea::telemetry

#endif  // KEA_TELEMETRY_PERF_MONITOR_H_
