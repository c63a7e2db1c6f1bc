#include "telemetry/drift_detector.h"

#include <algorithm>
#include <cmath>

#include "common/snapshot.h"
#include "obs/metrics.h"

namespace kea::telemetry {

namespace {

constexpr const char* kMetricNames[DriftDetector::kNumMetrics] = {
    "machines_reporting", "utilization", "task_latency", "queue_latency",
    "throughput",
};

obs::Counter* AlarmCounter(size_t metric) {
  static obs::Counter* counters[DriftDetector::kNumMetrics] = {
      obs::Registry::Get().GetCounter("drift.alarms",
                                      "metric=machines_reporting"),
      obs::Registry::Get().GetCounter("drift.alarms", "metric=utilization"),
      obs::Registry::Get().GetCounter("drift.alarms", "metric=task_latency"),
      obs::Registry::Get().GetCounter("drift.alarms", "metric=queue_latency"),
      obs::Registry::Get().GetCounter("drift.alarms", "metric=throughput"),
  };
  return counters[metric];
}

obs::Counter* StalenessCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("drift.alarms", "metric=staleness");
  return c;
}

}  // namespace

DriftDetector::DriftDetector(const Options& options) : options_(options) {
  for (auto& d : detectors_) {
    d = ml::PageHinkleyDetector(options_.page_hinkley);
  }
  ResetSeasonalBaseline();
}

void DriftDetector::ResetSeasonalBaseline() {
  const size_t period = options_.seasonal_period_hours > 0
                            ? static_cast<size_t>(options_.seasonal_period_hours)
                            : 0;
  for (size_t m = 0; m < kNumMetrics; ++m) {
    season_value_[m].assign(period, 0.0);
    season_filled_[m].assign(period, 0);
  }
}

const char* DriftDetector::MetricName(size_t metric) {
  return metric < kNumMetrics ? kMetricNames[metric] : "unknown";
}

void DriftDetector::FeedHour(const HourAgg& agg, std::vector<Alarm>* alarms) {
  if (agg.records == 0) return;
  const double n = static_cast<double>(agg.records);
  double values[kNumMetrics];
  bool present[kNumMetrics];
  for (size_t m = 0; m < kNumMetrics; ++m) present[m] = true;
  values[kMachinesReporting] = n;
  values[kUtilization] = agg.util_sum / n;
  // Latency is averaged over machines that actually ran tasks; an idle hour
  // contributes nothing rather than a fake zero.
  present[kTaskLatency] = agg.active > 0;
  values[kTaskLatency] =
      agg.active > 0 ? agg.latency_sum / static_cast<double>(agg.active) : 0.0;
  values[kQueueLatency] = agg.queue_sum / n;
  values[kThroughput] = agg.tasks_sum / n;

  for (size_t m = 0; m < kNumMetrics; ++m) {
    if (!present[m]) continue;
    double observation = values[m];
    if (!season_value_[m].empty()) {
      // Seasonal differencing: compare against the same hour-of-period from
      // the most recent prior period, as a relative change so one
      // parameterization (and the min_stddev significance floor) fits every
      // metric's scale. The first period only primes the baseline —
      // recurring load cycles must cancel before the detectors see anything.
      const size_t slot = static_cast<size_t>(agg.hour) % season_value_[m].size();
      const bool primed = season_filled_[m][slot] != 0;
      const double baseline = season_value_[m][slot];
      season_value_[m][slot] = values[m];
      season_filled_[m][slot] = 1;
      if (!primed) continue;
      observation = (values[m] - baseline) /
                    std::max(std::abs(baseline), 1e-12);
    }
    if (detectors_[m].Observe(observation)) {
      ++alarm_counts_[m];
      drifting_ = true;
      AlarmCounter(m)->Increment();
      alarms->push_back(
          Alarm{kMetricNames[m], agg.hour, detectors_[m].drift_magnitude()});
    }
  }
}

std::vector<DriftDetector::Alarm> DriftDetector::CatchUp(
    const TelemetryStore& store) {
  std::vector<Alarm> alarms;
  const RecordView records = store.records();
  if (cursor_ > records.size()) {
    // Store was replaced/truncated under us; start over from the beginning
    // rather than fabricate a window.
    cursor_ = 0;
  }
  bool saw_data = false;
  for (size_t i = cursor_; i < records.size(); ++i) {
    const MachineHourRecord& r = records[i];
    saw_data = true;
    last_data_hour_ = std::max(last_data_hour_, r.hour);
    if (r.hour <= fed_watermark_) continue;  // Late arrival; hour already fed.
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [&](const HourAgg& a) { return a.hour == r.hour; });
    if (it == pending_.end()) {
      pending_.push_back(HourAgg{});
      it = pending_.end() - 1;
      it->hour = r.hour;
    }
    ++it->records;
    it->util_sum += r.cpu_utilization;
    it->queue_sum += r.queue_latency_ms;
    it->tasks_sum += r.tasks_finished;
    if (r.tasks_finished > 0.0) {
      ++it->active;
      it->latency_sum += r.avg_task_latency_s;
    }
  }
  cursor_ = records.size();
  if (saw_data) stale_alarmed_ = false;

  // Feed every aggregated hour strictly below the newest hour seen — the
  // newest may still be receiving records at a batch boundary.
  std::sort(pending_.begin(), pending_.end(),
            [](const HourAgg& a, const HourAgg& b) { return a.hour < b.hour; });
  size_t fed = 0;
  for (const HourAgg& agg : pending_) {
    if (agg.hour >= last_data_hour_) break;
    FeedHour(agg, &alarms);
    fed_watermark_ = std::max(fed_watermark_, agg.hour);
    ++fed;
  }
  pending_.erase(pending_.begin(), pending_.begin() + fed);
  return alarms;
}

std::vector<DriftDetector::Alarm> DriftDetector::CheckStaleness(
    sim::HourIndex now) {
  std::vector<Alarm> alarms;
  if (last_data_hour_ < 0 || stale_alarmed_) return alarms;
  if (now - last_data_hour_ >= options_.staleness_hours) {
    stale_alarmed_ = true;
    drifting_ = true;
    ++staleness_alarms_;
    StalenessCounter()->Increment();
    alarms.push_back(
        Alarm{"staleness", now, static_cast<double>(now - last_data_hour_)});
  }
  return alarms;
}

void DriftDetector::Rearm() {
  for (auto& d : detectors_) d.Reset();
  ResetSeasonalBaseline();
  drifting_ = false;
  stale_alarmed_ = false;
}

double DriftDetector::max_drift() const {
  double max_drift = 0.0;
  for (const auto& d : detectors_) {
    max_drift = std::max(max_drift, d.drift_magnitude());
  }
  return max_drift;
}

template <typename Ar>
void Persist(Ar& ar, DriftDetector& d) {
  ar(d.cursor_, d.fed_watermark_, d.last_data_hour_, d.drifting_,
     d.stale_alarmed_, d.staleness_alarms_);
  for (size_t m = 0; m < DriftDetector::kNumMetrics; ++m) {
    ar(d.alarm_counts_[m]);
    ar.Nested(d.detectors_[m]);
    // The baselines are sized by the options' period, which is
    // construction-time: a blob of another period is refused.
    std::vector<double>& values = d.season_value_[m];
    ar.Count(values.size(),
             "drift-detector state has a different seasonal period");
    for (size_t s = 0; s < values.size(); ++s) {
      ar(values[s]);
      ar.Flag(d.season_filled_[m][s]);
    }
  }
  ar(d.pending_);
}

std::string DriftDetector::SerializeState() const { return Encode(*this); }

Status DriftDetector::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::telemetry

