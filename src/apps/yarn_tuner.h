#ifndef KEA_APPS_YARN_TUNER_H_
#define KEA_APPS_YARN_TUNER_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "core/deployment.h"
#include "core/whatif.h"
#include "sim/cluster.h"
#include "sim/fluid_sweep.h"
#include "telemetry/store.h"

namespace kea::apps {

/// Observational tuning of YARN's max_num_running_containers (Section 5.2).
///
/// Pipeline: fit the What-if Engine on telemetry, then solve the LP of
/// Eq. (7)-(10):
///
///   max   sum_k m_k n_k                     (sellable container capacity)
///   s.t.  W-bar(m) <= W-bar'                (cluster average task latency)
///         g_k(m_k) <= max_utilization       (keep machines off the cliff)
///         |m_k - m'_k| <= max_step          (production conservatism)
///
/// W-bar is a ratio of quadratics in m; following the paper's LP
/// formulation, the task-throughput weights l_k n_k are frozen at their
/// current operating values, making the constraint linear (see DESIGN.md).
/// ProposeExact() solves the unlinearized problem by integer search and is
/// used by the ablation bench.
class YarnConfigTuner {
 public:
  struct Options {
    core::WhatIfEngine::Options whatif;
    /// Box radius around the current operating point, in containers.
    int max_step = 2;
    /// Predicted utilization cap per group.
    double max_utilization = 0.97;
    /// Allowed ratio of new to current cluster-average latency (1.0 = "no
    /// worse", Eq. 8).
    double latency_slack = 1.0;
    int min_containers = 1;
  };

  /// The proposed configuration plus the model's own predictions about it.
  struct Plan {
    std::vector<core::GroupRecommendation> recommendations;
    /// Fractional change in total container capacity, sum_k m*_k n_k over
    /// sum_k m'_k n_k, minus 1.
    double predicted_capacity_gain = 0.0;
    double predicted_latency_before_s = 0.0;
    double predicted_latency_after_s = 0.0;
    /// Continuous LP optimum per group (before rounding), keyed by group.
    std::map<sim::MachineGroupKey, double> lp_solution;

    /// The state archive's field list (common/snapshot.h): the plan a
    /// ROUND_STARTED payload journals.
    template <typename Ar>
    friend void Persist(Ar& ar, Plan& plan) {
      ar(plan.recommendations, plan.predicted_capacity_gain,
         plan.predicted_latency_before_s, plan.predicted_latency_after_s,
         plan.lp_solution);
    }
  };

  YarnConfigTuner() : options_(Options()) {}
  explicit YarnConfigTuner(const Options& options) : options_(options) {}

  /// Full observational-tuning pass: fit + optimize. `cluster` supplies the
  /// current configured max_containers per group (the value the
  /// recommendation patches).
  StatusOr<Plan> Propose(const telemetry::TelemetryStore& store,
                         const telemetry::RecordFilter& filter,
                         const sim::Cluster& cluster) const;

  /// Optimizes against an already-fitted engine (lets callers reuse fits).
  StatusOr<Plan> ProposeFromEngine(const core::WhatIfEngine& engine,
                                   const sim::Cluster& cluster) const;

  /// Exact variant: integer search with the true (nonlinear) latency ratio
  /// constraint instead of the LP linearization.
  StatusOr<Plan> ProposeExact(const core::WhatIfEngine& engine,
                              const sim::Cluster& cluster) const;

  /// What the fluid simulator says about a plan before it ships: the current
  /// and proposed configurations simulated side by side (the flighting dry
  /// run of Section 5.2.2, minus the production risk).
  struct SimulatedPlanOutcome {
    sim::SweepSummary current;
    sim::SweepSummary proposed;
    /// Fractional change proposed/current - 1 in the simulated task-weighted
    /// latency and total tasks finished.
    double latency_change = 0.0;
    double throughput_change = 0.0;
  };

  /// Simulates `plan` against the base configuration with the fluid-engine
  /// configuration sweep: both arms run `sweep.hours` hours on private
  /// cluster copies with independent RNG substreams, concurrently per
  /// `sweep.num_threads`, and bit-identically at any thread count.
  StatusOr<SimulatedPlanOutcome> SimulatePlan(const Plan& plan,
                                              const sim::PerfModel* model,
                                              const sim::Cluster& base,
                                              const sim::WorkloadModel* workload,
                                              const sim::SweepOptions& sweep) const;

 private:
  /// Configured max_containers per group read from the cluster.
  static StatusOr<std::map<sim::MachineGroupKey, int>> ConfiguredMax(
      const sim::Cluster& cluster);

  Options options_;
};

}  // namespace kea::apps

#endif  // KEA_APPS_YARN_TUNER_H_
