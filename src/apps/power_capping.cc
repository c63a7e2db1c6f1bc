#include "apps/power_capping.h"

#include <cmath>

#include "core/experiment.h"
#include "core/treatment.h"
#include "telemetry/perf_monitor.h"

namespace kea::apps {

namespace {

/// Guardrails of every round. A cap is the treatment under study, so they
/// catch an arm gone badly wrong, not the degradation Figure 15 measures.
/// The baseline is the day before the round, and a weekday's queue p99 runs
/// up to ~6x a Sunday's, so the queue ratio allows the weekly cycle.
constexpr core::GuardrailThresholds kGuardrails{.max_latency_ratio = 1.25,
                                                .max_queue_p99_ratio = 10.0,
                                                .queue_p99_floor_ms = 500.0};

/// Group-level normalized metrics over a telemetry window.
struct GroupWindowMetrics {
  double bytes_per_cpu_time = 0.0;
  double bytes_per_second = 0.0;
  double avg_power_watts = 0.0;
  /// Per-machine-hour Bytes-per-CPU-Time samples for significance testing.
  std::vector<double> bytes_per_cpu_samples;
};

StatusOr<GroupWindowMetrics> MeasureGroup(const telemetry::TelemetryStore& store,
                                          const std::vector<int>& machine_ids,
                                          sim::HourIndex begin, sim::HourIndex end) {
  double data = 0.0, cpu_s = 0.0, exec_s = 0.0, power = 0.0;
  size_t count = 0;
  GroupWindowMetrics m;
  store.ForEach(telemetry::AndFilter(telemetry::HourRangeFilter(begin, end),
                                     telemetry::MachineSetFilter(machine_ids)),
                [&](const telemetry::MachineHourRecord& r) {
                  data += r.data_read_mb;
                  cpu_s += r.cpu_time_core_s;
                  exec_s += r.avg_task_latency_s * r.tasks_finished;
                  power += r.power_watts;
                  if (r.cpu_time_core_s > 0.0) {
                    m.bytes_per_cpu_samples.push_back(r.BytesPerCpuTime());
                  }
                  ++count;
                });
  if (count == 0 || cpu_s <= 0.0 || exec_s <= 0.0) {
    return Status::FailedPrecondition("no usable telemetry for the group window");
  }
  m.bytes_per_cpu_time = data / cpu_s;
  m.bytes_per_second = data / exec_s;
  m.avg_power_watts = power / static_cast<double>(count);
  return m;
}

/// One round's cell for group `x` against its group A.
PowerCappingStudy::Cell MakeCell(double cap, bool capped, bool feature,
                                 const GroupWindowMetrics& a,
                                 const GroupWindowMetrics& x) {
  PowerCappingStudy::Cell cell;
  cell.cap_level = cap;
  cell.capped = capped;
  cell.feature = feature;
  cell.bytes_per_cpu_time_change = x.bytes_per_cpu_time / a.bytes_per_cpu_time - 1.0;
  cell.bytes_per_second_change = x.bytes_per_second / a.bytes_per_second - 1.0;
  cell.avg_power_watts = x.avg_power_watts;
  auto test = core::EstimateTreatmentEffectWelch(
      "bytes_per_cpu", a.bytes_per_cpu_samples, x.bytes_per_cpu_samples);
  if (test.ok()) {
    cell.t_value = test->t_value;
    cell.significant = test->significant;
  }
  return cell;
}

}  // namespace

StatusOr<std::vector<core::FlightRequest>> PowerCappingStudy::Requests(
    const sim::Cluster& cluster) const {
  if (options_.cap_levels.empty()) {
    return Status::InvalidArgument("no cap levels to test");
  }
  for (double cap : options_.cap_levels) {
    if (cap <= 0.0 || cap >= 1.0) {
      return Status::InvalidArgument("cap levels must be in (0, 1)");
    }
  }
  KEA_ASSIGN_OR_RETURN(std::vector<std::vector<int>> groups,
                       core::HybridGroups(cluster, options_.sku, 4,
                                          options_.group_size));
  std::vector<core::FlightRequest> requests;
  for (double cap : options_.cap_levels) {
    core::FlightRequest req;
    req.name = "power-cap-" + std::to_string(static_cast<int>(cap * 100.0 + 0.5));
    req.sku = options_.sku;
    req.arms.resize(4);
    req.arms[1].feature_enabled = true;
    req.arms[2].power_cap_fraction = cap;
    req.arms[3].power_cap_fraction = cap;
    req.arms[3].feature_enabled = true;
    req.pinned_arms = groups;
    req.window_hours = options_.hours_per_round;
    req.num_windows = 1;
    req.guardrails = kGuardrails;
    requests.push_back(std::move(req));
  }
  return requests;
}

StatusOr<PowerCappingStudy::Result> PowerCappingStudy::Read(
    const sim::PerfModel& model, const telemetry::TelemetryStore& store,
    const core::ExperimentFabric::Report& report) const {
  if (report.flights.size() != options_.cap_levels.size()) {
    return Status::InvalidArgument("one flight per cap level expected");
  }
  Result result;
  for (size_t i = 0; i < report.flights.size(); ++i) {
    const core::ExperimentFabric::FlightConclusion& flight = report.flights[i];
    KEA_RETURN_IF_ERROR(core::ConclusionStatus(flight));
    GroupWindowMetrics g[4];
    for (size_t arm = 0; arm < 4; ++arm) {
      KEA_ASSIGN_OR_RETURN(g[arm],
                           MeasureGroup(store, flight.arms[arm].machines,
                                        flight.start_hour, flight.end_hour));
    }
    const double cap = options_.cap_levels[i];
    if (i == 0) result.cells.push_back(MakeCell(0.0, false, true, g[0], g[1]));
    result.cells.push_back(MakeCell(cap, true, false, g[0], g[2]));
    result.cells.push_back(MakeCell(cap, true, true, g[0], g[3]));
  }

  // Recommend the deepest cap whose Feature-enabled cell keeps Bytes per CPU
  // Time within 1% of the uncapped baseline.
  for (const Cell& cell : result.cells) {
    if (!cell.capped || !cell.feature) continue;
    if (cell.bytes_per_cpu_time_change >= -0.01 &&
        cell.cap_level > result.recommended_cap_level) {
      result.recommended_cap_level = cell.cap_level;
    }
  }
  result.provisioned_watts_saved_per_machine =
      result.recommended_cap_level *
      model.catalog().spec(options_.sku).provisioned_watts;
  return result;
}

StatusOr<PowerCappingStudy::Result> PowerCappingStudy::Run(
    const sim::PerfModel& model, sim::Cluster* cluster, sim::FluidEngine* engine,
    telemetry::TelemetryStore* store, sim::HourIndex start_hour) const {
  if (cluster == nullptr || engine == nullptr || store == nullptr) {
    return Status::InvalidArgument("null cluster/engine/store");
  }
  KEA_ASSIGN_OR_RETURN(std::vector<core::FlightRequest> requests,
                       Requests(*cluster));
  sim::HourIndex now = start_hour;
  KEA_ASSIGN_OR_RETURN(
      core::ExperimentFabric::Report report,
      core::ExperimentFabric(core::ExperimentFabric::Options())
          .Run(requests, cluster, store, start_hour,
               [&](int hours) {
                 KEA_RETURN_IF_ERROR(engine->Run(now, hours, store));
                 now += hours;
                 return Status::OK();
               },
               nullptr));
  return Read(model, *store, report);
}

}  // namespace kea::apps
