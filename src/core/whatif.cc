#include "core/whatif.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
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
obs::Counter* IrlsRowIterationsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("whatif.irls_row_iterations");
  return c;
}
obs::Counter* IrlsRowsReweightedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("whatif.irls_rows_reweighted");
  return c;
}

/// One group's IRLS work over its Huber fits.
struct IrlsWork {
  uint64_t iterations = 0;       ///< Reweighted solves.
  uint64_t row_iterations = 0;   ///< Rows times reweighted solves.
  uint64_t rows_reweighted = 0;  ///< Rows whose weight was recomputed.
};

/// Fits one relationship from its columns in place; a kHuber fit adds its
/// IRLS work to `*work`.
StatusOr<ml::LinearModel> FitPairs(std::span<const double> x, std::span<const double> y,
                                   RegressorKind kind, IrlsWork* work) {
  if (kind == RegressorKind::kOls) return ml::LinearRegressor().FitLine(x, y);
  ml::HuberRegressor::FitStats stats;
  KEA_ASSIGN_OR_RETURN(ml::LinearModel model, ml::HuberRegressor().FitLine(x, y, &stats));
  const auto iterations = static_cast<uint64_t>(stats.iterations);
  work->iterations += iterations;
  work->row_iterations += iterations * y.size();
  work->rows_reweighted += stats.rows_reweighted;
  return model;
}

/// Fits one machine group's g/h/f models from its columns, which it
/// consumes, and adds their IRLS work to `*work`. Returns an empty optional
/// when the group lacks enough busy observations (skipped, not an error).
StatusOr<std::optional<GroupModels>> FitGroup(const sim::MachineGroupKey& key,
                                              GroupColumns& columns,
                                              const WhatIfEngine::Options& options,
                                              IrlsWork* work) {
  std::vector<double>& containers = columns.containers;
  std::vector<double>& util = columns.utilization;
  std::vector<double>& tasks = columns.tasks;
  std::vector<double>& latency = columns.latency;
  if (containers.size() < options.min_observations) {
    return std::optional<GroupModels>();
  }
  std::unordered_set<int> machines;
  for (int machine : columns.machines) machines.insert(machine);

  GroupModels gm;
  gm.group = key;
  gm.num_machines = static_cast<int>(machines.size());

  // Every fit and evaluation reads the columns in place.
  KEA_ASSIGN_OR_RETURN(gm.g, FitPairs(containers, util, options.regressor, work));
  KEA_ASSIGN_OR_RETURN(gm.h, FitPairs(util, tasks, options.regressor, work));
  KEA_ASSIGN_OR_RETURN(gm.f, FitPairs(util, latency, options.regressor, work));

  KEA_ASSIGN_OR_RETURN(gm.g_fit, ml::Evaluate(gm.g, containers, util));
  KEA_ASSIGN_OR_RETURN(gm.h_fit, ml::Evaluate(gm.h, util, tasks));
  KEA_ASSIGN_OR_RETURN(gm.f_fit, ml::Evaluate(gm.f, util, latency));

  // Median operating point (the large dot of Figure 9). The medians are the
  // columns' last use, so each selects in its column's own storage.
  KEA_ASSIGN_OR_RETURN(gm.current_containers, ml::Quantile(std::move(containers), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_utilization, ml::Quantile(std::move(util), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_tasks_per_hour, ml::Quantile(std::move(tasks), 0.5));
  KEA_ASSIGN_OR_RETURN(gm.current_latency_s, ml::Quantile(std::move(latency), 0.5));

  return std::optional<GroupModels>(std::move(gm));
}

}  // namespace

std::map<sim::MachineGroupKey, GroupColumns> ReadGroupColumns(
    const telemetry::TelemetryStore& store, const telemetry::RecordFilter& filter) {
  std::map<sim::MachineGroupKey, GroupColumns> columns;
  store.ForEach(filter, [&columns](const telemetry::MachineHourRecord& r) {
    GroupColumns& c = columns[r.group()];
    ++c.records;
    if (r.tasks_finished <= 0.0) return;
    c.machines.push_back(r.machine_id);
    c.containers.push_back(r.avg_running_containers);
    c.utilization.push_back(r.cpu_utilization);
    c.tasks.push_back(r.tasks_finished);
    c.latency.push_back(r.avg_task_latency_s);
  });
  return columns;
}

StatusOr<WhatIfEngine> WhatIfEngine::Fit(const telemetry::TelemetryStore& store,
                                         const telemetry::RecordFilter& filter,
                                         const Options& options) {
  std::map<sim::MachineGroupKey, GroupColumns> grouped = ReadGroupColumns(store, filter);
  if (grouped.empty()) {
    return Status::FailedPrecondition("no telemetry to fit the What-if Engine");
  }
  size_t window_records = 0;
  for (const auto& entry : grouped) window_records += entry.second.records;
  KEA_TRACE_SPAN("whatif.fit",
                 {{"groups", std::to_string(grouped.size())},
                  {"records", std::to_string(window_records)},
                  {"store_records", std::to_string(store.size())}});
  FitsCounter()->Increment();

  // Groups are independent (one g/h/f triple per SC-SKU combination), so the
  // fitting loop fans out over the pool. Results land in per-group slots and
  // are assembled below in key order, making the output identical at any
  // thread count.
  std::vector<std::pair<const sim::MachineGroupKey, GroupColumns>*> groups;
  groups.reserve(grouped.size());
  for (auto& entry : grouped) {
    if (entry.second.records >= options.min_observations) groups.push_back(&entry);
  }

  std::vector<std::optional<GroupModels>> fitted(groups.size());
  std::vector<Status> failures(groups.size(), Status::OK());
  std::vector<IrlsWork> irls(groups.size());
  common::ThreadPool::Run(options.num_threads, groups.size(), [&](size_t i) {
    KEA_TRACE_SPAN("whatif.fit_group",
                   {{"group", sim::GroupLabel(groups[i]->first)},
                    {"records", std::to_string(groups[i]->second.records)}});
    StatusOr<std::optional<GroupModels>> result =
        FitGroup(groups[i]->first, groups[i]->second, options, &irls[i]);
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
      IrlsIterationsCounter()->Increment(irls[i].iterations);
      IrlsRowIterationsCounter()->Increment(irls[i].row_iterations);
      IrlsRowsReweightedCounter()->Increment(irls[i].rows_reweighted);
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

// Not deterministic: how many normals are drawn depends on the sample counts
// the process asked for before and on which of two concurrent extensions of
// one key publishes, so it stays out of the deterministic exports.
obs::Counter* NormalDrawsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter(
      "whatif.normal_draws", "", obs::Kind::kTiming);
  return c;
}

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

/// A prefix of one group's stream of standard normals, split by the model
/// they perturb: sample s reads g[s], h[s] and f[s], which are draws 3s, 3s+1
/// and 3s+2.
struct GroupDraws {
  std::vector<double> g, h, f;
};

/// Every group key's draws, for the process. The stream is seeded by the key
/// alone, so what the table holds for a key is a pure function of the key and
/// the largest sample count asked so far: engines and tenants share it without
/// sharing anything an answer could depend on. A key costs 24 bytes a sample,
/// up to WhatIfEngine::kKeptUncertaintySamples; a longer request draws its
/// tail past that on every call.
class DrawTable {
 public:
  static DrawTable& Get() {
    static DrawTable* table = new DrawTable();  // never destroyed
    return *table;
  }

  /// An immutable snapshot holding at least the key's first 3 * `samples`
  /// draws. The lock is held only to read or publish a key's snapshot and
  /// generator; the draws themselves happen outside it, so no request waits
  /// behind another's extension. A snapshot that grew the key's stream is
  /// published unless a larger one was published meanwhile (its prefix is
  /// the same draws); holders of an older snapshot keep it.
  std::shared_ptr<const GroupDraws> Draws(const sim::MachineGroupKey& key,
                                          size_t samples) {
    std::shared_ptr<const GroupDraws> draws;
    std::optional<Rng> rng;
    Stream* stream = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stream = &streams_.try_emplace(key, SampleSeed(key)).first->second;
      if (stream->draws->g.size() >= samples) return stream->draws;
      draws = stream->draws;
      rng = stream->rng;
    }
    const size_t kept = std::min(
        samples,
        static_cast<size_t>(WhatIfEngine::kKeptUncertaintySamples));
    if (draws->g.size() < kept) {
      draws = Extend(*draws, &*rng, kept);
      std::lock_guard<std::mutex> lock(mu_);
      if (stream->draws->g.size() < kept) {
        stream->draws = draws;
        stream->rng = *rng;
      }
    }
    if (draws->g.size() < samples) draws = Extend(*draws, &*rng, samples);
    return draws;
  }

 private:
  struct Stream {
    explicit Stream(uint64_t seed) : rng(seed) {}
    Rng rng;  ///< Positioned just past `draws`.
    std::shared_ptr<const GroupDraws> draws = std::make_shared<GroupDraws>();
  };

  /// `prefix` followed by draws from `rng`, which is positioned just past it,
  /// up to `samples`.
  static std::shared_ptr<const GroupDraws> Extend(const GroupDraws& prefix,
                                                  Rng* rng, size_t samples) {
    const size_t drawn = prefix.g.size();
    auto grown = std::make_shared<GroupDraws>();
    for (auto [to, from] : {std::pair{&grown->g, &prefix.g},
                            std::pair{&grown->h, &prefix.h},
                            std::pair{&grown->f, &prefix.f}}) {
      to->reserve(samples);
      to->assign(from->begin(), from->end());
      to->resize(samples);
    }
    for (size_t s = drawn; s < samples; ++s) {
      grown->g[s] = rng->Gaussian();
      grown->h[s] = rng->Gaussian();
      grown->f[s] = rng->Gaussian();
    }
    NormalDrawsCounter()->Increment(3 * (samples - drawn));
    return grown;
  }

  std::mutex mu_;  ///< Guards streams_ and every Stream in it.
  /// Keys are never erased, so a Stream's address outlives any call.
  std::map<sim::MachineGroupKey, Stream> streams_;
};

/// Sample standard deviations of n-value rows, kWidth rows at a time. Each
/// row's mean and squared-deviation sums run over s = 0, 1, ..., n-1 in their
/// own accumulators, the order of a one-row loop, so every deviation keeps
/// those bits; the rows' chains are independent, so the processor overlaps
/// their adds instead of waiting on one row's add after another.
class StddevBatch {
 public:
  explicit StddevBatch(size_t n) : n_(n), rows_(kWidth * n) {}

  /// The row to fill next; Push() then queues it.
  double* Row() { return rows_.data() + pending_ * n_; }

  /// Queues the filled Row(), whose deviation goes to `*target` by the next
  /// Flush() at the latest; `target` must stay valid until then.
  void Push(double* target) {
    targets_[pending_++] = target;
    if (pending_ == kWidth) {
      Deviations<kWidth>(0);
      pending_ = 0;
    }
  }

  /// Writes the deviation of every queued row.
  void Flush() {
    for (size_t r = 0; r < pending_; ++r) Deviations<1>(r);
    pending_ = 0;
  }

 private:
  static constexpr size_t kWidth = 4;

  /// Rows [first, first + W).
  template <size_t W>
  void Deviations(size_t first) {
    if (n_ < 2) {
      for (size_t r = 0; r < W; ++r) *targets_[first + r] = 0.0;
      return;
    }
    const double* x[W];
    double mean[W], ss[W];
    for (size_t r = 0; r < W; ++r) {
      x[r] = rows_.data() + (first + r) * n_;
      mean[r] = 0.0;
      ss[r] = 0.0;
    }
    for (size_t s = 0; s < n_; ++s) {
      for (size_t r = 0; r < W; ++r) mean[r] += x[r][s];
    }
    for (size_t r = 0; r < W; ++r) mean[r] /= static_cast<double>(n_);
    for (size_t s = 0; s < n_; ++s) {
      for (size_t r = 0; r < W; ++r) {
        ss[r] += (x[r][s] - mean[r]) * (x[r][s] - mean[r]);
      }
    }
    for (size_t r = 0; r < W; ++r) {
      *targets_[first + r] = std::sqrt(ss[r] / static_cast<double>(n_ - 1));
    }
  }

  const size_t n_;
  std::vector<double> rows_;
  double* targets_[kWidth] = {};
  size_t pending_ = 0;
};

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
  std::map<sim::MachineGroupKey, std::shared_ptr<const GroupDraws>> draws;
  // Per-sample cluster accumulators, aggregated across one candidate's groups.
  std::vector<double> mc_weighted(samples), mc_weight(samples);
  // A group's rows are flushed before its candidate's result moves into
  // `results`; the cluster rows' targets live in `results`, which never
  // reallocates.
  StddevBatch group_stddevs(samples), cluster_stddevs(samples);
  std::vector<WhatIfResult> results;
  results.reserve(grid.size());
  for (const auto& containers_per_machine : grid) {
    WhatIfResult result;
    double weighted = 0.0, weight = 0.0;
    std::fill(mc_weighted.begin(), mc_weighted.end(), 0.0);
    std::fill(mc_weight.begin(), mc_weight.end(), 0.0);
    for (const auto& [key, m_k] : containers_per_machine) {
      KEA_ASSIGN_OR_RETURN(const GroupModels* gm, Find(key));
      GroupWhatIf& gw = result.groups[key];
      gw.containers = m_k;
      gw.utilization = gm->g.Predict1D(m_k);
      gw.tasks_per_hour = gm->h.Predict1D(gw.utilization);
      gw.latency_s = gm->f.Predict1D(gw.utilization);
      double n_k = static_cast<double>(gm->num_machines);
      weighted += gw.latency_s * gw.tasks_per_hour * n_k;
      weight += gw.tasks_per_hour * n_k;

      if (samples > 0) {
        auto [it, fresh] = draws.try_emplace(key);
        if (fresh) it->second = DrawTable::Get().Draws(key, samples);
        const GroupDraws& z = *it->second;
        // Propagate each model's residual noise through the g -> h/f chain,
        // each draw as mean + rmse * z. Throughput is floored at a sliver so
        // a noisy draw cannot flip the task-weighting negative.
        // Locals, not `gw`'s fields, so the loop vectorizes: stores through
        // the row could otherwise alias the map node.
        const double util0 = gw.utilization, g_rmse = gm->g_fit.rmse;
        const double h0 = gm->h.intercept(), h1 = gm->h.coefficients()[0];
        const double h_rmse = gm->h_fit.rmse;
        const double f0 = gm->f.intercept(), f1 = gm->f.coefficients()[0];
        const double f_rmse = gm->f_fit.rmse;
        double* mc_latency = group_stddevs.Row();
        for (size_t s = 0; s < samples; ++s) {
          const double util = util0 + g_rmse * z.g[s];
          const double tasks =
              std::max(h0 + h1 * util + h_rmse * z.h[s], 1e-9);
          const double latency = f0 + f1 * util + f_rmse * z.f[s];
          mc_latency[s] = latency;
          mc_weighted[s] += latency * tasks * n_k;
          mc_weight[s] += tasks * n_k;
        }
        group_stddevs.Push(&gw.latency_stderr_s);
      }
    }
    group_stddevs.Flush();
    if (weight <= 0.0) {
      return Status::FailedPrecondition("predicted zero task throughput");
    }
    result.cluster_latency_s = weighted / weight;
    results.push_back(std::move(result));
    if (samples > 0) {
      double* mc_latency = cluster_stddevs.Row();
      for (size_t s = 0; s < samples; ++s) {
        mc_latency[s] = mc_weighted[s] / mc_weight[s];
      }
      cluster_stddevs.Push(&results.back().cluster_latency_stderr_s);
    }
  }
  cluster_stddevs.Flush();
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

WhatIfEngine::WhatIfEngine(std::map<sim::MachineGroupKey, GroupModels> models)
    : models_(std::move(models)) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis.
  HashU64(models_.size(), &h);
  for (const auto& [key, gm] : models_) {
    HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sc)), &h);
    HashU64(static_cast<uint64_t>(static_cast<int64_t>(key.sku)), &h);
    HashU64(static_cast<uint64_t>(gm.num_machines), &h);
    HashModel(gm.g, &h);
    HashModel(gm.h, &h);
    HashModel(gm.f, &h);
    // The fit RMSEs scale every error bar.
    HashDouble(gm.g_fit.rmse, &h);
    HashDouble(gm.h_fit.rmse, &h);
    HashDouble(gm.f_fit.rmse, &h);
    HashDouble(gm.current_containers, &h);
    HashDouble(gm.current_utilization, &h);
    HashDouble(gm.current_tasks_per_hour, &h);
    HashDouble(gm.current_latency_s, &h);
  }
  model_hash_ = h;
}

}  // namespace kea::core
