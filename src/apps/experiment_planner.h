#ifndef KEA_APPS_EXPERIMENT_PLANNER_H_
#define KEA_APPS_EXPERIMENT_PLANNER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/experiment_fabric.h"
#include "core/power_analysis.h"
#include "sim/cluster.h"
#include "telemetry/store.h"

namespace kea::apps {

/// Sizes an experimental-tuning study before running it (Section 7: a fair
/// comparison needs controlled variables *and* "a relatively large sample
/// size"). From telemetry, estimates the per-machine-day noise of the target
/// metric for one SKU, then uses power analysis to recommend how many
/// machines x days each arm needs to detect a given effect.
class ExperimentPlanner {
 public:
  struct Options {
    /// Smallest relative effect the experiment must detect (e.g. 0.01 = 1%).
    double min_detectable_effect = 0.01;
    core::PowerAnalysis power;
    /// Maximum workdays an experiment may run (the paper's studies run 1-5).
    int max_days = 10;
  };

  struct Plan {
    sim::SkuId sku = 0;
    /// Estimated per-machine-day relative standard deviation of the metric.
    double relative_stddev = 0.0;
    /// Machine-day observations needed per arm.
    int64_t machine_days_per_arm = 0;
    /// A concrete (machines, days) recommendation within the day budget.
    int machines_per_arm = 0;
    int days = 0;
    /// Whether the cluster has enough machines of the SKU for two arms.
    bool feasible = false;
    /// The effect actually detectable with the recommended shape.
    double achieved_mde = 0.0;
  };

  ExperimentPlanner() : options_(Options()) {}
  explicit ExperimentPlanner(const Options& options) : options_(options) {}

  /// Plans an A/B experiment on `sku` using `store` to estimate the noise of
  /// per-machine-day Total Data Read. Returns FailedPrecondition when the
  /// telemetry has too few machine-days of the SKU, InvalidArgument on bad
  /// options.
  StatusOr<Plan> PlanDataReadExperiment(const telemetry::TelemetryStore& store,
                                        const sim::Cluster& cluster,
                                        sim::SkuId sku) const;

  /// A batch of plans destined for the concurrent experiment fabric: the
  /// feasible plans, plus every SKU that could not be planned with the reason
  /// (too little telemetry, zero variance, not enough machines). A SKU that
  /// fails to plan never silently disappears from the queue.
  struct BatchPlan {
    std::vector<Plan> plans;
    std::vector<std::pair<sim::SkuId, std::string>> skipped;
  };

  /// Plans one data-read experiment per SKU. Per-SKU failures are collected
  /// in `skipped`, not returned as errors — a fleet-wide batch must survive
  /// individual degenerate SKUs.
  BatchPlan PlanDataReadBatch(const telemetry::TelemetryStore& store,
                              const sim::Cluster& cluster,
                              const std::vector<sim::SkuId>& skus) const;

  /// Converts the feasible plans of a batch into fabric flight requests: one
  /// request per plan with arms {unpatched control, `treatment`}, arms sized
  /// by the plan, horizon = plan.days sliced into `window_hours` guardrail
  /// windows (a partial trailing window is dropped).
  static std::vector<core::FlightRequest> ToFlightRequests(
      const BatchPlan& batch, const core::ConfigPatch& treatment,
      int window_hours = 6);

 private:
  Options options_;
};

}  // namespace kea::apps

#endif  // KEA_APPS_EXPERIMENT_PLANNER_H_
