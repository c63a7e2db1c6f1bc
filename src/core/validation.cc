#include "core/validation.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "ml/stats.h"

namespace kea::core {

StatusOr<ValidationReport> ModelValidator::Validate(
    const WhatIfEngine& engine, const telemetry::TelemetryStore& store,
    const telemetry::RecordFilter& window) const {
  std::map<sim::MachineGroupKey, GroupColumns> grouped = ReadGroupColumns(store, window);
  if (grouped.empty()) {
    return Status::FailedPrecondition("no telemetry in the validation window");
  }

  ValidationReport report;
  report.models_valid = true;
  bool any_validated = false;

  for (auto& [key, columns] : grouped) {
    if (engine.models().find(key) == engine.models().end()) {
      report.unmodeled_groups.push_back(key);
      report.models_valid = false;
      continue;
    }
    if (columns.containers.size() < options_.min_observations) continue;

    GroupValidation v;
    v.group = key;
    v.observations = columns.containers.size();
    KEA_ASSIGN_OR_RETURN(v.observed_containers,
                         ml::Quantile(std::move(columns.containers), 0.5));
    KEA_ASSIGN_OR_RETURN(v.observed_utilization,
                         ml::Quantile(std::move(columns.utilization), 0.5));
    KEA_ASSIGN_OR_RETURN(v.observed_latency_s,
                         ml::Quantile(std::move(columns.latency), 0.5));

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
