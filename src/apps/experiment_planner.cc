#include "apps/experiment_planner.h"

#include <cmath>
#include <map>

#include "ml/stats.h"
#include "telemetry/perf_monitor.h"

namespace kea::apps {

StatusOr<ExperimentPlanner::Plan> ExperimentPlanner::PlanDataReadExperiment(
    const telemetry::TelemetryStore& store, const sim::Cluster& cluster,
    sim::SkuId sku) const {
  if (options_.min_detectable_effect <= 0.0 ||
      options_.min_detectable_effect >= 1.0) {
    return Status::InvalidArgument("min_detectable_effect must be in (0, 1)");
  }
  if (options_.max_days <= 0) {
    return Status::InvalidArgument("max_days must be positive");
  }

  // Per-machine-day Total Data Read for the SKU.
  auto daily = telemetry::RollUpDaily(
      store, [sku](const telemetry::MachineHourRecord& r) { return r.sku == sku; });
  std::vector<double> per_day;
  per_day.reserve(daily.size());
  for (const auto& d : daily) {
    if (d.data_read_mb > 0.0) per_day.push_back(d.data_read_mb);
  }
  if (per_day.size() < 30) {
    return Status::FailedPrecondition(
        "need >= 30 machine-days of telemetry for the SKU to estimate noise");
  }
  KEA_ASSIGN_OR_RETURN(ml::Summary summary, ml::Summarize(per_day));
  if (summary.mean <= 0.0) {
    return Status::FailedPrecondition("degenerate data-read telemetry");
  }
  // Zero-variance (constant) telemetry would make the power analysis demand a
  // 0-machine arm / report an infinite MDE. There is nothing to detect an
  // effect against; reject the plan outright instead of emitting a degenerate
  // one.
  if (!std::isfinite(summary.stddev) || summary.stddev <= 0.0) {
    return Status::FailedPrecondition(
        "data-read telemetry for the SKU has zero variance (constant "
        "machine-days) — cannot size an experiment against zero noise");
  }

  Plan plan;
  plan.sku = sku;
  plan.relative_stddev = summary.stddev / summary.mean;

  // Work in relative units: detect `min_detectable_effect` against
  // `relative_stddev` noise.
  KEA_ASSIGN_OR_RETURN(
      plan.machine_days_per_arm,
      core::RequiredSampleSizePerArm(options_.min_detectable_effect,
                                     plan.relative_stddev, options_.power));

  // Concrete shape: prefer more machines over more days (faster answers);
  // at the day budget, scale machines.
  int available = 0;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku == sku) ++available;
  }
  int per_arm_budget = available / 2;

  int days = 1;
  int machines = static_cast<int>(plan.machine_days_per_arm);
  while (machines > per_arm_budget && days < options_.max_days) {
    ++days;
    machines = static_cast<int>(
        std::ceil(static_cast<double>(plan.machine_days_per_arm) / days));
  }
  plan.days = days;
  plan.machines_per_arm = machines;
  plan.feasible = machines <= per_arm_budget && per_arm_budget > 0;

  int64_t actual_n = static_cast<int64_t>(plan.machines_per_arm) * plan.days;
  KEA_ASSIGN_OR_RETURN(plan.achieved_mde,
                       core::MinimumDetectableEffect(std::max<int64_t>(actual_n, 2),
                                                     plan.relative_stddev,
                                                     options_.power));
  return plan;
}

ExperimentPlanner::BatchPlan ExperimentPlanner::PlanDataReadBatch(
    const telemetry::TelemetryStore& store, const sim::Cluster& cluster,
    const std::vector<sim::SkuId>& skus) const {
  BatchPlan batch;
  for (sim::SkuId sku : skus) {
    StatusOr<Plan> plan = PlanDataReadExperiment(store, cluster, sku);
    if (!plan.ok()) {
      batch.skipped.emplace_back(sku, plan.status().message());
      continue;
    }
    if (!plan.value().feasible) {
      batch.skipped.emplace_back(
          sku, "not enough machines of the SKU for two arms");
      continue;
    }
    batch.plans.push_back(std::move(plan).value());
  }
  return batch;
}

std::vector<core::FlightRequest> ExperimentPlanner::ToFlightRequests(
    const BatchPlan& batch, const core::ConfigPatch& treatment,
    int window_hours) {
  std::vector<core::FlightRequest> requests;
  if (window_hours <= 0) return requests;
  requests.reserve(batch.plans.size());
  for (const Plan& plan : batch.plans) {
    core::FlightRequest req;
    req.name = "data-read-sku" + std::to_string(plan.sku);
    req.sku = plan.sku;
    req.arms = {core::ConfigPatch(), treatment};
    req.machines_per_arm = plan.machines_per_arm;
    req.window_hours = window_hours;
    // The planned horizon in whole guardrail windows; a partial trailing
    // window is dropped, never fabricated.
    req.num_windows = std::max(1, (plan.days * 24) / window_hours);
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace kea::apps
