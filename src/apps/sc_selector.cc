#include "apps/sc_selector.h"

#include <functional>
#include <map>

#include "telemetry/perf_monitor.h"

namespace kea::apps {

namespace {

/// Guardrails of the SC flight. Its baseline is the day before the first
/// workday, often a Sunday, whose queue p99 a weekday's runs up to ~6x, and
/// arm 0 moves half its machines to the slower SC1; so the thresholds catch
/// a broken arm, not the load cycle.
constexpr core::GuardrailThresholds kGuardrails{.max_latency_ratio = 1.25,
                                                .max_queue_p99_ratio = 10.0,
                                                .queue_p99_floor_ms = 500.0};

/// Aggregates per-machine-day observations of a metric over a window.
std::vector<double> PerMachineDay(
    const telemetry::TelemetryStore& store, const std::vector<int>& machine_ids,
    sim::HourIndex begin, sim::HourIndex end,
    const std::function<double(double sum_data, double sum_exec_s, double sum_tasks)>&
        reduce) {
  // (machine, day) -> sums.
  struct Sums {
    double data = 0.0;
    double exec_s = 0.0;
    double tasks = 0.0;
  };
  std::map<std::pair<int, int>, Sums> by_day;
  store.ForEach(telemetry::AndFilter(telemetry::HourRangeFilter(begin, end),
                                     telemetry::MachineSetFilter(machine_ids)),
                [&](const telemetry::MachineHourRecord& r) {
                  Sums& s = by_day[{r.machine_id, r.hour / sim::kHoursPerDay}];
                  s.data += r.data_read_mb;
                  s.exec_s += r.avg_task_latency_s * r.tasks_finished;
                  s.tasks += r.tasks_finished;
                });
  std::vector<double> out;
  out.reserve(by_day.size());
  for (const auto& [key, s] : by_day) {
    out.push_back(reduce(s.data, s.exec_s, s.tasks));
  }
  return out;
}

}  // namespace

StatusOr<std::vector<core::FlightRequest>> ScSelector::Requests(
    const sim::Cluster& cluster) const {
  if (options_.workdays <= 0) {
    return Status::InvalidArgument("workdays must be positive");
  }
  KEA_ASSIGN_OR_RETURN(core::ExperimentAssignment assignment,
                       core::IdealAssignment(cluster, options_.sku,
                                             options_.max_racks,
                                             options_.min_machines_per_arm));
  core::FlightRequest req;
  req.name = "sc1-vs-sc2";
  req.sku = options_.sku;
  req.arms.resize(2);
  req.arms[0].software_config = 0;
  req.arms[1].software_config = 1;
  req.pinned_arms = {std::move(assignment.control),
                     std::move(assignment.treatment)};
  req.window_hours = sim::kHoursPerDay;
  req.num_windows = options_.workdays;
  req.guardrails = kGuardrails;
  return std::vector<core::FlightRequest>{std::move(req)};
}

StatusOr<ScSelector::Result> ScSelector::Read(
    const sim::Cluster& cluster, const telemetry::TelemetryStore& store,
    const core::ExperimentFabric::Report& report) const {
  if (report.flights.size() != 1) {
    return Status::InvalidArgument("the SC experiment is one flight");
  }
  const core::ExperimentFabric::FlightConclusion& flight = report.flights[0];
  KEA_RETURN_IF_ERROR(core::ConclusionStatus(flight));
  Result result;
  result.assignment.control = flight.arms[0].machines;
  result.assignment.treatment = flight.arms[1].machines;
  result.balance = core::CheckBalance(cluster, result.assignment);

  // Table 4 metrics, per machine-day.
  auto data_metric = [](double data, double, double) { return data; };
  auto latency_metric = [](double, double exec_s, double tasks) {
    return tasks > 0.0 ? exec_s / tasks : 0.0;
  };
  auto per_day = [&](const std::vector<int>& arm, const auto& metric) {
    return PerMachineDay(store, arm, flight.start_hour, flight.end_hour, metric);
  };
  KEA_ASSIGN_OR_RETURN(
      result.data_read,
      core::EstimateTreatmentEffect("Total Data Read (MB/day)",
                                    per_day(result.assignment.control, data_metric),
                                    per_day(result.assignment.treatment, data_metric)));
  KEA_ASSIGN_OR_RETURN(
      result.task_latency,
      core::EstimateTreatmentEffect(
          "Average Task Execution Time (s)",
          per_day(result.assignment.control, latency_metric),
          per_day(result.assignment.treatment, latency_metric)));

  result.sc2_dominates = result.data_read.percent_change > 0.0 &&
                         result.data_read.significant &&
                         result.task_latency.percent_change < 0.0 &&
                         result.task_latency.significant;
  return result;
}

StatusOr<ScSelector::Result> ScSelector::Run(sim::Cluster* cluster,
                                             sim::FluidEngine* engine,
                                             telemetry::TelemetryStore* store,
                                             sim::HourIndex start_hour) const {
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
  return Read(*cluster, *store, report);
}

}  // namespace kea::apps
