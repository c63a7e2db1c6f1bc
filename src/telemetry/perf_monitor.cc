#include "telemetry/perf_monitor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

namespace kea::telemetry {
namespace {

/// True when every field the aggregate queries touch is finite. Records
/// failing this cannot contribute to any mean without poisoning it.
bool RecordFinite(const MachineHourRecord& r) {
  return std::isfinite(r.avg_running_containers) && std::isfinite(r.cpu_utilization) &&
         std::isfinite(r.tasks_finished) && std::isfinite(r.data_read_mb) &&
         std::isfinite(r.avg_task_latency_s) && std::isfinite(r.cpu_time_core_s) &&
         std::isfinite(r.queued_containers) && std::isfinite(r.queue_latency_ms) &&
         std::isfinite(r.power_watts);
}

/// Clamps v's values to its [frac, 1-frac] empirical quantiles in place.
/// Order is preserved (only magnitudes change), so downstream accumulation
/// order — and hence determinism — is unaffected.
void Winsorize(std::vector<double>* v, double frac) {
  if (frac <= 0.0 || v->size() < 3) return;
  std::vector<double> sorted = *v;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  size_t lo_idx = static_cast<size_t>(frac * static_cast<double>(n));
  size_t hi_idx = n - 1 - std::min(lo_idx, n - 1);
  double lo = sorted[std::min(lo_idx, n - 1)];
  double hi = sorted[hi_idx];
  for (double& x : *v) x = std::clamp(x, lo, hi);
}

}  // namespace

StatusOr<std::map<sim::MachineGroupKey, GroupMetrics>>
PerformanceMonitor::GroupMetricsByKey(const RecordFilter& filter) const {
  return GroupMetricsByKey(filter, AggregationOptions());
}

StatusOr<std::map<sim::MachineGroupKey, GroupMetrics>>
PerformanceMonitor::GroupMetricsByKey(const RecordFilter& filter,
                                      const AggregationOptions& options) const {
  auto grouped = store_->GroupByKey(filter);
  if (grouped.empty()) {
    return Status::FailedPrecondition("no telemetry records match the filter");
  }
  std::map<sim::MachineGroupKey, GroupMetrics> out;
  for (const auto& [key, all_records] : grouped) {
    // Non-finite records are unusable for any aggregate; screen them first
    // (a no-op on clean stores, so the default path is unchanged bit for bit).
    std::vector<MachineHourRecord> records;
    records.reserve(all_records.size());
    for (const auto& r : all_records) {
      if (RecordFinite(r)) records.push_back(r);
    }
    if (records.empty()) continue;
    if (options.min_support > 0 && records.size() < options.min_support) continue;

    GroupMetrics m;
    m.group = key;
    m.machine_hours = records.size();

    // Per-metric value vectors in record order; winsorizing clamps values
    // without reordering, so the accumulation below is identical to summing
    // the raw fields when winsorize_fraction is 0.
    size_t count = records.size();
    std::vector<double> containers(count), utils(count), tasks(count), data(count);
    std::vector<double> latencies(count), cpu_seconds(count), queued(count);
    std::vector<double> power(count);
    std::unordered_set<int> machines;
    std::vector<double> queue_latencies;
    queue_latencies.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const auto& r = records[i];
      machines.insert(r.machine_id);
      containers[i] = r.avg_running_containers;
      utils[i] = r.cpu_utilization;
      tasks[i] = r.tasks_finished;
      data[i] = r.data_read_mb;
      latencies[i] = r.avg_task_latency_s;
      cpu_seconds[i] = r.cpu_time_core_s;
      queued[i] = r.queued_containers;
      power[i] = r.power_watts;
      queue_latencies.push_back(r.queue_latency_ms);
    }
    if (options.winsorize_fraction > 0.0) {
      double f = std::min(options.winsorize_fraction, 0.49);
      Winsorize(&containers, f);
      Winsorize(&utils, f);
      Winsorize(&tasks, f);
      Winsorize(&data, f);
      Winsorize(&latencies, f);
      Winsorize(&cpu_seconds, f);
      Winsorize(&queued, f);
      Winsorize(&power, f);
    }

    double sum_containers = 0.0, sum_util = 0.0, sum_tasks = 0.0, sum_data = 0.0;
    double sum_latency_weighted = 0.0;
    double sum_exec_seconds = 0.0, sum_cpu_seconds = 0.0;
    double sum_queued = 0.0, sum_power = 0.0;
    for (size_t i = 0; i < count; ++i) {
      sum_containers += containers[i];
      sum_util += utils[i];
      sum_tasks += tasks[i];
      sum_data += data[i];
      sum_latency_weighted += latencies[i] * tasks[i];
      sum_exec_seconds += latencies[i] * tasks[i];
      sum_cpu_seconds += cpu_seconds[i];
      sum_queued += queued[i];
      sum_power += power[i];
    }
    double n = static_cast<double>(count);
    m.num_machines = static_cast<int>(machines.size());
    m.avg_running_containers = sum_containers / n;
    m.avg_cpu_utilization = sum_util / n;
    m.avg_tasks_per_hour = sum_tasks / n;
    m.avg_data_read_mb_per_hour = sum_data / n;
    m.avg_task_latency_s = sum_tasks > 0.0 ? sum_latency_weighted / sum_tasks : 0.0;
    m.bytes_per_second = sum_exec_seconds > 0.0 ? sum_data / sum_exec_seconds : 0.0;
    m.bytes_per_cpu_time = sum_cpu_seconds > 0.0 ? sum_data / sum_cpu_seconds : 0.0;
    m.avg_queued_containers = sum_queued / n;
    m.avg_power_watts = sum_power / n;

    std::sort(queue_latencies.begin(), queue_latencies.end());
    size_t p99 = static_cast<size_t>(0.99 * static_cast<double>(queue_latencies.size()));
    p99 = std::min(p99, queue_latencies.size() - 1);
    m.p99_queue_latency_ms = queue_latencies[p99];

    out[key] = m;
  }
  if (out.empty()) {
    return Status::FailedPrecondition(
        "no group meets the aggregation support/validity requirements");
  }
  return out;
}

StatusOr<std::vector<std::pair<sim::HourIndex, double>>>
PerformanceMonitor::HourlyClusterUtilization(const RecordFilter& filter) const {
  std::map<sim::HourIndex, std::pair<double, size_t>> by_hour;
  store_->ForEach(filter, [&by_hour](const MachineHourRecord& r) {
    if (!std::isfinite(r.cpu_utilization)) return;
    auto& [sum, count] = by_hour[r.hour];
    sum += r.cpu_utilization;
    ++count;
  });
  if (by_hour.empty()) {
    return Status::FailedPrecondition("no telemetry records match the filter");
  }
  std::vector<std::pair<sim::HourIndex, double>> out;
  out.reserve(by_hour.size());
  for (const auto& [hour, agg] : by_hour) {
    out.emplace_back(hour, agg.first / static_cast<double>(agg.second));
  }
  return out;
}

std::vector<ScatterPoint> PerformanceMonitor::UtilizationThroughputScatter(
    size_t max_points, const RecordFilter& filter) const {
  std::vector<ScatterPoint> points;
  size_t matching = 0;
  store_->ForEach(filter, [&matching](const MachineHourRecord&) { ++matching; });
  if (matching == 0) return points;
  size_t stride = std::max<size_t>(1, matching / std::max<size_t>(1, max_points));
  size_t index = 0;
  store_->ForEach(filter, [&](const MachineHourRecord& r) {
    if (index++ % stride != 0) return;
    ScatterPoint p;
    p.x = r.cpu_utilization;
    p.y = r.data_read_mb;
    p.group = r.group();
    points.push_back(p);
  });
  return points;
}

StatusOr<double> PerformanceMonitor::ClusterAverageTaskLatency(
    const RecordFilter& filter) const {
  double weighted = 0.0, tasks = 0.0;
  store_->ForEach(filter, [&](const MachineHourRecord& r) {
    if (!std::isfinite(r.avg_task_latency_s) || !std::isfinite(r.tasks_finished) ||
        r.tasks_finished < 0.0) {
      return;
    }
    weighted += r.avg_task_latency_s * r.tasks_finished;
    tasks += r.tasks_finished;
  });
  if (tasks <= 0.0) {
    return Status::FailedPrecondition("no finished tasks in the filtered telemetry");
  }
  return weighted / tasks;
}

double PerformanceMonitor::TotalDataReadMb(const RecordFilter& filter) const {
  double total = 0.0;
  store_->ForEach(filter, [&total](const MachineHourRecord& r) {
    if (std::isfinite(r.data_read_mb)) total += r.data_read_mb;
  });
  return total;
}

double PerformanceMonitor::TotalTasksFinished(const RecordFilter& filter) const {
  double total = 0.0;
  store_->ForEach(filter, [&total](const MachineHourRecord& r) {
    if (std::isfinite(r.tasks_finished)) total += r.tasks_finished;
  });
  return total;
}

RecordFilter MachineSetFilter(std::vector<int> machine_ids) {
  auto set = std::make_shared<std::unordered_set<int>>(machine_ids.begin(),
                                                       machine_ids.end());
  return [set](const MachineHourRecord& r) { return set->count(r.machine_id) > 0; };
}

RecordFilter GroupFilter(sim::MachineGroupKey key) {
  return [key](const MachineHourRecord& r) { return r.group() == key; };
}

std::vector<MachineHourRecord> RollUpDaily(const TelemetryStore& store,
                                           const RecordFilter& filter) {
  // (machine, day) -> accumulated record + hour count.
  std::map<std::pair<int, int>, std::pair<MachineHourRecord, int>> days;
  store.ForEach(filter, [&days](const MachineHourRecord& r) {
    if (!RecordFinite(r)) return;
    int day = r.hour / sim::kHoursPerDay;
    auto [it, inserted] = days.try_emplace({r.machine_id, day});
    MachineHourRecord& acc = it->second.first;
    if (inserted) {
      acc = r;
      acc.hour = day;
      // Convert the mean-latency field to total execution seconds while
      // accumulating; divided back out at the end.
      acc.avg_task_latency_s = r.avg_task_latency_s * r.tasks_finished;
      it->second.second = 1;
      return;
    }
    acc.avg_running_containers += r.avg_running_containers;
    acc.cpu_utilization += r.cpu_utilization;
    acc.tasks_finished += r.tasks_finished;
    acc.data_read_mb += r.data_read_mb;
    acc.avg_task_latency_s += r.avg_task_latency_s * r.tasks_finished;
    acc.cpu_time_core_s += r.cpu_time_core_s;
    acc.queued_containers += r.queued_containers;
    acc.queue_latency_ms += r.queue_latency_ms;
    acc.rejected_containers += r.rejected_containers;
    acc.cores_used += r.cores_used;
    acc.ssd_used_gb += r.ssd_used_gb;
    acc.ram_used_gb += r.ram_used_gb;
    acc.network_used_mbps += r.network_used_mbps;
    acc.power_watts += r.power_watts;
    it->second.second += 1;
  });

  std::vector<MachineHourRecord> out;
  out.reserve(days.size());
  for (auto& [key, entry] : days) {
    MachineHourRecord& acc = entry.first;
    double hours = static_cast<double>(entry.second);
    // Level metrics back to time averages.
    acc.avg_running_containers /= hours;
    acc.cpu_utilization /= hours;
    acc.queued_containers /= hours;
    acc.queue_latency_ms /= hours;
    acc.cores_used /= hours;
    acc.ssd_used_gb /= hours;
    acc.ram_used_gb /= hours;
    acc.network_used_mbps /= hours;
    acc.power_watts /= hours;
    // Task-weighted mean latency.
    acc.avg_task_latency_s =
        acc.tasks_finished > 0.0 ? acc.avg_task_latency_s / acc.tasks_finished : 0.0;
    out.push_back(acc);
  }
  return out;
}

std::vector<MachineHourRecord> ScreenRecords(const std::vector<MachineHourRecord>& records,
                                             size_t* dropped) {
  std::vector<MachineHourRecord> clean;
  clean.reserve(records.size());
  size_t bad = 0;
  for (const auto& r : records) {
    bool ok = std::isfinite(r.cpu_utilization) && r.cpu_utilization >= 0.0 &&
              r.cpu_utilization <= 1.0 && std::isfinite(r.avg_running_containers) &&
              r.avg_running_containers >= 0.0 && std::isfinite(r.tasks_finished) &&
              r.tasks_finished >= 0.0 && std::isfinite(r.data_read_mb) &&
              r.data_read_mb >= 0.0 && std::isfinite(r.avg_task_latency_s) &&
              r.avg_task_latency_s >= 0.0 &&
              !(r.tasks_finished <= 0.0 && r.avg_task_latency_s > 0.0);
    if (ok) {
      clean.push_back(r);
    } else {
      ++bad;
    }
  }
  if (dropped != nullptr) *dropped = bad;
  return clean;
}

}  // namespace kea::telemetry
