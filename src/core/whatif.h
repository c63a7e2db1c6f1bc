#ifndef KEA_CORE_WHATIF_H_
#define KEA_CORE_WHATIF_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ml/regression.h"
#include "telemetry/perf_monitor.h"
#include "telemetry/store.h"

namespace kea::core {

/// Which regression family the What-if Engine fits. The paper uses a Huber
/// regressor in production ("more robust to outliers", Section 5.2.1); OLS is
/// kept for the ablation bench.
enum class RegressorKind { kOls, kHuber };

/// One machine group's telemetry as the fit and the validator read it.
/// Idle machine-hours (no finished tasks) carry no task-latency signal, so
/// only busy ones enter the columns, in store order.
struct GroupColumns {
  size_t records = 0;  ///< The group's records in the window, idle ones too.
  std::vector<int> machines;
  std::vector<double> containers, utilization, tasks, latency;
};

/// Reads the records `filter` matches into per-group columns in one pass
/// over the store, copying no record.
std::map<sim::MachineGroupKey, GroupColumns> ReadGroupColumns(
    const telemetry::TelemetryStore& store, const telemetry::RecordFilter& filter);

/// The calibrated model set for one SC-SKU combination k (Figure 9):
///   g_k: running containers -> CPU utilization      (Eq. 1-2)
///   h_k: CPU utilization    -> tasks finished /hour (Eq. 3-4)
///   f_k: CPU utilization    -> mean task latency    (Eq. 5-6)
/// plus the group's current operating point, used as the reference
/// configuration m'_k.
struct GroupModels {
  sim::MachineGroupKey group;
  int num_machines = 0;  ///< n_k of Eq. (7).

  ml::LinearModel g;  ///< containers -> utilization.
  ml::LinearModel h;  ///< utilization -> tasks/hour.
  ml::LinearModel f;  ///< utilization -> task latency (s).

  ml::RegressionMetrics g_fit;
  ml::RegressionMetrics h_fit;
  ml::RegressionMetrics f_fit;

  /// Current (median) operating point from telemetry.
  double current_containers = 0.0;
  double current_utilization = 0.0;
  double current_tasks_per_hour = 0.0;
  double current_latency_s = 0.0;
};

/// Predicted metrics for one machine group under a hypothetical allocation.
struct GroupWhatIf {
  double containers = 0.0;      ///< The hypothetical m_k evaluated.
  double utilization = 0.0;     ///< g_k(m_k).
  double tasks_per_hour = 0.0;  ///< h_k(g_k(m_k)).
  double latency_s = 0.0;       ///< f_k(g_k(m_k)).
  /// Monte Carlo standard error of latency_s under the fitted models'
  /// residual noise; 0 when uncertainty sampling is disabled. Its true value,
  /// sqrt(f_slope^2 * g_rmse^2 + f_rmse^2), does not depend on containers.
  double latency_stderr_s = 0.0;
};

/// One full what-if evaluation: every group's predicted operating point plus
/// the cluster-wide task-weighted mean latency of Eq. (9).
struct WhatIfResult {
  std::map<sim::MachineGroupKey, GroupWhatIf> groups;
  double cluster_latency_s = 0.0;
  /// Monte Carlo standard error of cluster_latency_s (0 when disabled).
  double cluster_latency_stderr_s = 0.0;
};

/// The What-if Engine (Section 5.1): predicts the performance metrics of a
/// machine group under a *hypothetical* container allocation, using models
/// fit purely on observational telemetry — no experiments. The key property
/// it relies on: the relationships g/h/f reflect hardware and workload
/// mechanics and are invariant to the YARN configuration itself.
class WhatIfEngine {
 public:
  struct Options {
    RegressorKind regressor = RegressorKind::kHuber;
    /// Minimum machine-hours per group to fit a model.
    size_t min_observations = 24;
    /// Threads for the per-group fitting loop (groups are independent,
    /// Section 5.1 fits g/h/f per machine group): 0 = hardware_concurrency,
    /// 1 = the serial legacy path. Fitting is RNG-free and groups are
    /// assembled in key order, so results are identical at any value.
    int num_threads = 0;
  };

  /// Fits per-group models from the telemetry matching `filter`. Returns
  /// FailedPrecondition when no group has enough observations. Groups are
  /// fitted concurrently per `options.num_threads`; on multiple failures the
  /// error for the smallest group key is returned.
  static StatusOr<WhatIfEngine> Fit(const telemetry::TelemetryStore& store,
                                    const telemetry::RecordFilter& filter,
                                    const Options& options);

  /// An engine over group models fitted elsewhere, such as a reference fit
  /// at other regressor settings. Every g/h/f must be 1-D; nothing is refit.
  static WhatIfEngine FromModels(std::map<sim::MachineGroupKey, GroupModels> models) {
    return WhatIfEngine(std::move(models));
  }

  const std::map<sim::MachineGroupKey, GroupModels>& models() const { return models_; }

  /// Per-group predictions under a hypothetical container count. NotFound if
  /// the group has no calibrated models.
  StatusOr<double> PredictUtilization(sim::MachineGroupKey group, double containers) const;
  StatusOr<double> PredictTasksPerHour(sim::MachineGroupKey group, double containers) const;
  StatusOr<double> PredictTaskLatency(sim::MachineGroupKey group, double containers) const;

  /// The cluster-wide average task latency W-bar of Eq. (9) under a
  /// hypothetical per-group allocation: the task-weighted mean of the
  /// predicted group latencies. Missing groups are an error.
  StatusOr<double> PredictClusterLatency(
      const std::map<sim::MachineGroupKey, double>& containers_per_machine) const;

  /// W-bar' — the same quantity at the current operating point (Eq. 10).
  StatusOr<double> CurrentClusterLatency() const;

  /// Largest `uncertainty_samples` EvaluateGrid accepts. The sample count
  /// arrives from outside the program (a serving request), and each group's
  /// draws take 3 doubles per sample.
  static constexpr int kMaxUncertaintySamples = 65536;

  /// Samples per group key that the process-wide draw table keeps, so what a
  /// client asks cannot pin more than 96 KB per key for the life of the
  /// process. A request for more draws the rest of its stream on each call.
  static constexpr int kKeptUncertaintySamples = 4096;

  /// Evaluates every candidate allocation of `grid`: per-group
  /// utilization/throughput/latency plus the Eq. (9) cluster latency, using
  /// the same accumulation order as PredictClusterLatency so the scalar
  /// agrees bit-for-bit with it. Missing groups are an error; errors are
  /// returned in candidate order.
  ///
  /// With `uncertainty_samples` n > 0, additionally propagates the fitted
  /// models' residual noise (each model's fit RMSE) through the g -> h/f
  /// chain by Monte Carlo and fills the *_stderr fields. Uncertainty uses
  /// common random numbers: a group's noise stream is seeded from its key
  /// alone, and sample s perturbs g, h and f by its draws 3s, 3s+1 and 3s+2,
  /// as `mean + rmse * z`. Every candidate naming that group reuses the same
  /// draws, so each candidate keeps its marginal distribution,
  /// candidate-to-candidate differences carry no independent sampling noise,
  /// and the draws cost the same however many candidates the grid holds.
  /// The draws are a process-wide table: each group key's stream is drawn
  /// once, as far as the largest n asked so far up to
  /// kKeptUncertaintySamples (24 bytes a sample), and every later request
  /// reads that prefix. The result — error bars included — is a pure
  /// function of (models, candidate, n): it does not depend on which grid the
  /// candidate arrived in or what the process asked before, and it is
  /// bit-identical across runs, threads, and identically-fitted engines.
  /// n above kMaxUncertaintySamples is
  /// InvalidArgument; n <= 0 disables sampling. The tuning loop uses the
  /// point-prediction paths and never pays this cost.
  StatusOr<std::vector<WhatIfResult>> EvaluateGrid(
      std::span<const std::map<sim::MachineGroupKey, double>> grid,
      int uncertainty_samples) const;

  /// A one-candidate EvaluateGrid.
  StatusOr<WhatIfResult> EvaluateWhatIf(
      const std::map<sim::MachineGroupKey, double>& containers_per_machine,
      int uncertainty_samples = 0) const;

  /// FNV-1a digest, taken at construction, over everything EvaluateGrid
  /// reads: every group's key, machine count, fitted coefficients, fit
  /// RMSEs and operating point, walked in group-key order. Engines fit from
  /// identical telemetry with identical options hash identically; a refit on
  /// different data changes the digest with overwhelming probability.
  /// Cache-key material for the serving layer's memoized what-if cache;
  /// never persisted.
  uint64_t ModelHash() const { return model_hash_; }

 private:
  explicit WhatIfEngine(std::map<sim::MachineGroupKey, GroupModels> models);

  StatusOr<const GroupModels*> Find(sim::MachineGroupKey group) const;

  std::map<sim::MachineGroupKey, GroupModels> models_;
  uint64_t model_hash_ = 0;
};

}  // namespace kea::core

#endif  // KEA_CORE_WHATIF_H_
