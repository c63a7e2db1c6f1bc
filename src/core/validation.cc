#include "core/validation.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ml/stats.h"

namespace kea::core {

StatusOr<ValidationReport> ModelValidator::Validate(
    const WhatIfEngine& engine, const telemetry::TelemetryStore& store,
    const telemetry::RecordFilter& window) const {
  auto grouped = store.GroupByKey(window);
  if (grouped.empty()) {
    return Status::FailedPrecondition("no telemetry in the validation window");
  }

  ValidationReport report;
  report.models_valid = true;
  bool any_validated = false;

  for (const auto& [key, records] : grouped) {
    if (engine.models().find(key) == engine.models().end()) {
      report.unmodeled_groups.push_back(key);
      report.models_valid = false;
      continue;
    }
    std::vector<double> containers, util, latency;
    for (const auto& r : records) {
      if (r.tasks_finished <= 0.0) continue;
      containers.push_back(r.avg_running_containers);
      util.push_back(r.cpu_utilization);
      latency.push_back(r.avg_task_latency_s);
    }
    if (containers.size() < options_.min_observations) continue;

    GroupValidation v;
    v.group = key;
    v.observations = containers.size();
    KEA_ASSIGN_OR_RETURN(v.observed_containers, ml::Quantile(std::move(containers), 0.5));
    KEA_ASSIGN_OR_RETURN(v.observed_utilization, ml::Quantile(std::move(util), 0.5));
    KEA_ASSIGN_OR_RETURN(v.observed_latency_s, ml::Quantile(std::move(latency), 0.5));

    KEA_ASSIGN_OR_RETURN(v.predicted_utilization,
                         engine.PredictUtilization(key, v.observed_containers));
    KEA_ASSIGN_OR_RETURN(v.predicted_latency_s,
                         engine.PredictTaskLatency(key, v.observed_containers));

    v.utilization_error =
        v.observed_utilization > 1e-9
            ? std::fabs(v.predicted_utilization - v.observed_utilization) /
                  v.observed_utilization
            : 0.0;
    v.latency_error =
        v.observed_latency_s > 1e-9
            ? std::fabs(v.predicted_latency_s - v.observed_latency_s) /
                  v.observed_latency_s
            : 0.0;
    v.within_tolerance = v.utilization_error <= options_.tolerance &&
                         v.latency_error <= options_.tolerance;

    report.max_latency_error = std::max(report.max_latency_error, v.latency_error);
    report.max_utilization_error =
        std::max(report.max_utilization_error, v.utilization_error);
    if (!v.within_tolerance) report.models_valid = false;
    report.groups.push_back(v);
    any_validated = true;
  }

  if (!any_validated && report.unmodeled_groups.empty()) {
    return Status::FailedPrecondition(
        "no group had enough observations to validate");
  }
  return report;
}

}  // namespace kea::core
