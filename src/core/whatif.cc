#include "core/whatif.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ml/model_selection.h"
#include "ml/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {

namespace {

// Deterministic: logical fit events, identical at any thread count.
obs::Counter* FitsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("whatif.fits");
  return c;
}
obs::Counter* GroupsFittedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("whatif.groups_fitted");
  return c;
}
obs::Counter* GroupsSkippedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("whatif.groups_skipped");
  return c;
}
obs::Counter* IrlsIterationsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("whatif.irls_iterations");
  return c;
}

/// Fits one relationship; a kHuber fit adds its IRLS iterations to
/// `*irls_iterations`.
StatusOr<ml::LinearModel> FitPairs(const ml::Dataset& data, RegressorKind kind,
                                   int* irls_iterations) {
  if (kind == RegressorKind::kAuto) {
    KEA_ASSIGN_OR_RETURN(ml::RegressorFamily family, ml::SelectRegressor(data));
    return ml::FitFamily(data, family);
  }
  if (kind == RegressorKind::kHuber) {
    int iterations = 0;
    KEA_ASSIGN_OR_RETURN(ml::LinearModel model,
                         ml::HuberRegressor().Fit(data, &iterations));
    *irls_iterations += iterations;
    return model;
  }
  ml::LinearRegressor regressor;
  return regressor.Fit(data);
}

/// Fits one machine group's g/h/f models and adds their IRLS iterations to
/// `*irls_iterations`. Returns an empty optional when the group lacks enough
/// busy observations (skipped, not an error).
StatusOr<std::optional<GroupModels>> FitGroup(
    const sim::MachineGroupKey& key,
    const std::vector<telemetry::MachineHourRecord>& records,
    const WhatIfEngine::Options& options, int* irls_iterations) {
  std::vector<double> containers, util, tasks, latency;
  std::unordered_set<int> machines;
  containers.reserve(records.size());
  util.reserve(records.size());
  tasks.reserve(records.size());
  latency.reserve(records.size());
  for (const auto& r : records) {
    // Idle machine-hours carry no task-latency signal; skip them, matching
    // the production pipeline's data preparation.
    if (r.tasks_finished <= 0.0) continue;
    machines.insert(r.machine_id);
    containers.push_back(r.avg_running_containers);
    util.push_back(r.cpu_utilization);
    tasks.push_back(r.tasks_finished);
    latency.push_back(r.avg_task_latency_s);
  }
  if (containers.size() < options.min_observations) {
    return std::optional<GroupModels>();
  }

  GroupModels gm;
  gm.group = key;
  gm.num_machines = static_cast<int>(machines.size());

  // Each relationship's dataset serves its fit and its evaluation.
  const ml::Dataset g_data = ml::MakeDataset1D(containers, util);
  const ml::Dataset h_data = ml::MakeDataset1D(util, tasks);
  const ml::Dataset f_data = ml::MakeDataset1D(util, latency);
  KEA_ASSIGN_OR_RETURN(gm.g, FitPairs(g_data, options.regressor, irls_iterations));
  KEA_ASSIGN_OR_RETURN(gm.h, FitPairs(h_data, options.regressor, irls_iterations));
  KEA_ASSIGN_OR_RETURN(gm.f, FitPairs(f_data, options.regressor, irls_iterations));

  KEA_ASSIGN_OR_RETURN(gm.g_fit, ml::Evaluate(gm.g, g_data));
  KEA_ASSIGN_OR_RETURN(gm.h_fit, ml::Evaluate(gm.h, h_data));
  KEA_ASSIGN_OR_RETURN(gm.f_fit, ml::Evaluate(gm.f, f_data));

  // Median operating point (the large dot of Figure 9). The medians are the
  // columns' last use, so each selects in its column's own storage.
  KEA_ASSIGN_OR_RETURN(gm.current_containers, ml::Quantile(std::move(containers), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_utilization, ml::Quantile(std::move(util), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_tasks_per_hour, ml::Quantile(std::move(tasks), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_latency_s, ml::Quantile(std::move(latency), 0.5));

  return std::optional<GroupModels>(std::move(gm));
}

}  // namespace

StatusOr<WhatIfEngine> WhatIfEngine::Fit(const telemetry::TelemetryStore& store,
                                         const telemetry::RecordFilter& filter,
                                         const Options& options) {
  auto grouped = store.GroupByKey(filter);
  if (grouped.empty()) {
    return Status::FailedPrecondition("no telemetry to fit the What-if Engine");
  }
  size_t window_records = 0;
  for (const auto& entry : grouped) window_records += entry.second.size();
  KEA_TRACE_SPAN("whatif.fit",
                 {{"groups", std::to_string(grouped.size())},
                  {"records", std::to_string(window_records)},
                  {"store_records", std::to_string(store.size())}});
  FitsCounter()->Increment();

  // Groups are independent (one g/h/f triple per SC-SKU combination), so the
  // fitting loop fans out over the pool. Results land in per-group slots and
  // are assembled below in key order, making the output identical at any
  // thread count.
  std::vector<const std::pair<const sim::MachineGroupKey,
                              std::vector<telemetry::MachineHourRecord>>*>
      groups;
  groups.reserve(grouped.size());
  for (const auto& entry : grouped) {
    if (entry.second.size() >= options.min_observations) groups.push_back(&entry);
  }

  std::vector<std::optional<GroupModels>> fitted(groups.size());
  std::vector<Status> failures(groups.size(), Status::OK());
  std::vector<int> irls_iterations(groups.size(), 0);
  common::ThreadPool::Run(options.num_threads, groups.size(), [&](size_t i) {
    KEA_TRACE_SPAN("whatif.fit_group",
                   {{"group", sim::GroupLabel(groups[i]->first)},
                    {"records", std::to_string(groups[i]->second.size())}});
    StatusOr<std::optional<GroupModels>> result =
        FitGroup(groups[i]->first, groups[i]->second, options, &irls_iterations[i]);
    if (result.ok()) {
      fitted[i] = std::move(result).value();
    } else {
      failures[i] = result.status();
    }
  });
  for (const Status& s : failures) KEA_RETURN_IF_ERROR(s);

  // Counted during single-threaded assembly (not in the workers) so the
  // increments land in a deterministic order at every thread count.
  std::map<sim::MachineGroupKey, GroupModels> models;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (fitted[i].has_value()) {
      GroupsFittedCounter()->Increment();
      IrlsIterationsCounter()->Increment(static_cast<uint64_t>(irls_iterations[i]));
      models[groups[i]->first] = std::move(*fitted[i]);
    } else {
      GroupsSkippedCounter()->Increment();
    }
  }
  if (models.empty()) {
    return Status::FailedPrecondition(
        "no machine group has enough observations for the What-if Engine");
  }
  return WhatIfEngine(std::move(models));
}

StatusOr<const GroupModels*> WhatIfEngine::Find(sim::MachineGroupKey group) const {
  auto it = models_.find(group);
  if (it == models_.end()) {
    return Status::NotFound("no calibrated models for group " + sim::GroupLabel(group));
  }
  return &it->second;
}

StatusOr<double> WhatIfEngine::PredictUtilization(sim::MachineGroupKey group,
                                                  double containers) const {
  KEA_ASSIGN_OR_RETURN(const GroupModels* m, Find(group));
  return m->g.Predict1D(containers);
}

StatusOr<double> WhatIfEngine::PredictTasksPerHour(sim::MachineGroupKey group,
                                                   double containers) const {
  KEA_ASSIGN_OR_RETURN(const GroupModels* m, Find(group));
  return m->h.Predict1D(m->g.Predict1D(containers));
}

StatusOr<double> WhatIfEngine::PredictTaskLatency(sim::MachineGroupKey group,
                                                  double containers) const {
  KEA_ASSIGN_OR_RETURN(const GroupModels* m, Find(group));
  return m->f.Predict1D(m->g.Predict1D(containers));
}

StatusOr<double> WhatIfEngine::PredictClusterLatency(
    const std::map<sim::MachineGroupKey, double>& containers_per_machine) const {
  double weighted = 0.0, weight = 0.0;
  for (const auto& [key, m_k] : containers_per_machine) {
    KEA_ASSIGN_OR_RETURN(const GroupModels* gm, Find(key));
    double util = gm->g.Predict1D(m_k);
    double tasks = gm->h.Predict1D(util);
    double latency = gm->f.Predict1D(util);
    double n_k = static_cast<double>(gm->num_machines);
    weighted += latency * tasks * n_k;
    weight += tasks * n_k;
  }
  if (weight <= 0.0) {
    return Status::FailedPrecondition("predicted zero task throughput");
  }
  return weighted / weight;
}

StatusOr<double> WhatIfEngine::CurrentClusterLatency() const {
  std::map<sim::MachineGroupKey, double> current;
  for (const auto& [key, gm] : models_) current[key] = gm.current_containers;
  return PredictClusterLatency(current);
}

namespace {

/// Deterministic per-group sampling seed: FNV-1a over the group key alone.
/// Every candidate that names the group draws the same noise (common random
/// numbers), and no estimate depends on evaluation order, thread count, or
/// wall clock.
uint64_t SampleSeed(const sim::MachineGroupKey& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<uint64_t>(static_cast<int64_t>(key.sc)));
  mix(static_cast<uint64_t>(static_cast<int64_t>(key.sku)));
  return h;
}

/// One group's shared draws for a request: the first 3n standard normals of
/// its stream, split by the model they perturb. Sample s reads g[s], h[s] and
/// f[s], which are draws 3s, 3s+1 and 3s+2.
struct GroupDraws {
  std::vector<double> g, h, f;
};

GroupDraws DrawNormals(const sim::MachineGroupKey& key, size_t samples) {
  Rng rng(SampleSeed(key));
  GroupDraws z;
  z.g.resize(samples);
  z.h.resize(samples);
  z.f.resize(samples);
  for (size_t s = 0; s < samples; ++s) {
    z.g[s] = rng.Gaussian();
    z.h[s] = rng.Gaussian();
    z.f[s] = rng.Gaussian();
  }
  return z;
}

double Stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size() - 1));
}

}  // namespace

StatusOr<std::vector<WhatIfResult>> WhatIfEngine::EvaluateGrid(
    std::span<const std::map<sim::MachineGroupKey, double>> grid,
    int uncertainty_samples) const {
  if (uncertainty_samples > kMaxUncertaintySamples) {
    return Status::InvalidArgument(
        "uncertainty_samples " + std::to_string(uncertainty_samples) +
        " exceeds the limit of " + std::to_string(kMaxUncertaintySamples));
  }
  const size_t samples =
      uncertainty_samples > 0 ? static_cast<size_t>(uncertainty_samples) : 0;
  std::map<sim::MachineGroupKey, GroupDraws> draws;
  // Per-sample cluster accumulators, aggregated across one candidate's groups.
  std::vector<double> mc_weighted(samples), mc_weight(samples);
  std::vector<double> mc_latency(samples);
  std::vector<WhatIfResult> results;
  results.reserve(grid.size());
  for (const auto& containers_per_machine : grid) {
    WhatIfResult result;
    double weighted = 0.0, weight = 0.0;
    std::fill(mc_weighted.begin(), mc_weighted.end(), 0.0);
    std::fill(mc_weight.begin(), mc_weight.end(), 0.0);
    for (const auto& [key, m_k] : containers_per_machine) {
      KEA_ASSIGN_OR_RETURN(const GroupModels* gm, Find(key));
      GroupWhatIf gw;
      gw.containers = m_k;
      gw.utilization = gm->g.Predict1D(m_k);
      gw.tasks_per_hour = gm->h.Predict1D(gw.utilization);
      gw.latency_s = gm->f.Predict1D(gw.utilization);
      double n_k = static_cast<double>(gm->num_machines);
      weighted += gw.latency_s * gw.tasks_per_hour * n_k;
      weight += gw.tasks_per_hour * n_k;

      if (samples > 0) {
        auto [it, fresh] = draws.try_emplace(key);
        if (fresh) it->second = DrawNormals(key, samples);
        const GroupDraws& z = it->second;
        // Propagate each model's residual noise through the g -> h/f chain,
        // each draw as mean + rmse * z. Throughput is floored at a sliver so
        // a noisy draw cannot flip the task-weighting negative.
        const double g_rmse = gm->g_fit.rmse;
        const double h0 = gm->h.intercept(), h1 = gm->h.coefficients()[0];
        const double h_rmse = gm->h_fit.rmse;
        const double f0 = gm->f.intercept(), f1 = gm->f.coefficients()[0];
        const double f_rmse = gm->f_fit.rmse;
        for (size_t s = 0; s < samples; ++s) {
          const double util = gw.utilization + g_rmse * z.g[s];
          const double tasks =
              std::max(h0 + h1 * util + h_rmse * z.h[s], 1e-9);
          const double latency = f0 + f1 * util + f_rmse * z.f[s];
          mc_latency[s] = latency;
          mc_weighted[s] += latency * tasks * n_k;
          mc_weight[s] += tasks * n_k;
        }
        gw.latency_stderr_s = Stddev(mc_latency);
      }
      result.groups[key] = gw;
    }
    if (weight <= 0.0) {
      return Status::FailedPrecondition("predicted zero task throughput");
    }
    result.cluster_latency_s = weighted / weight;
    if (samples > 0) {
      for (size_t s = 0; s < samples; ++s) {
        mc_latency[s] = mc_weighted[s] / mc_weight[s];
      }
      result.cluster_latency_stderr_s = Stddev(mc_latency);
    }
    results.push_back(std::move(result));
  }
  return results;
}

StatusOr<WhatIfResult> WhatIfEngine::EvaluateWhatIf(
    const std::map<sim::MachineGroupKey, double>& containers_per_machine,
    int uncertainty_samples) const {
  KEA_ASSIGN_OR_RETURN(
      std::vector<WhatIfResult> results,
      EvaluateGrid(std::span(&containers_per_machine, 1), uncertainty_samples));
  return std::move(results.front());
}

namespace {

// FNV-1a over the value's little-endian bytes; doubles hash their exact
// IEEE-754 bit pattern so the digest is as bit-exact as the models.
inline void HashU64(uint64_t v, uint64_t* h) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xffu;
    *h *= 0x100000001b3ULL;
  }
}
inline void HashDouble(double v, uint64_t* h) {
  HashU64(std::bit_cast<uint64_t>(v), h);
}
inline void HashModel(const ml::LinearModel& m, uint64_t* h) {
  HashDouble(m.intercept(), h);
  HashU64(m.coefficients().size(), h);
  for (double c : m.coefficients()) HashDouble(c, h);
}

}  // namespace

uint64_t WhatIfEngine::ModelHash() const {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis.
  HashU64(models_.size(), &h);
  for (const auto& [key, gm] : models_) {
    HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sc)), &h);
    HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sku)), &h);
    HashU64(static_cast<uint64_t>(gm.num_machines), &h);
    HashModel(gm.g, &h);
    HashModel(gm.h, &h);
    HashModel(gm.f, &h);
    HashDouble(gm.current_containers, &h);
    HashDouble(gm.current_utilization, &h);
    HashDouble(gm.current_tasks_per_hour, &h);
    HashDouble(gm.current_latency_s, &h);
  }
  return h;
}

}  // namespace kea::core
