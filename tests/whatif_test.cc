#include "core/whatif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "apps/yarn_tuner.h"
#include "core/validation.h"
#include "obs/metrics.h"
#include "reference_fits.h"
#include "sim/fluid_engine.h"

namespace kea::core {
namespace {

/// Simulates a default cluster and fits the engine — the observational
/// tuning path end to end.
struct WhatIfFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  telemetry::TelemetryStore store;

  explicit WhatIfFixture(int machines = 400, int hours = sim::kHoursPerWeek) {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = machines;
    cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
    sim::FluidEngine engine(&model, &cluster, &workload, sim::FluidEngine::Options());
    (void)engine.Run(0, hours, &store);
  }
};

TEST(WhatIfEngineTest, FitsAllPopulatedGroups) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok()) << engine.status();
  // 2 SCs x 6 SKUs.
  EXPECT_EQ(engine->models().size(), 12u);
}

TEST(WhatIfEngineTest, EmptyStoreFails) {
  telemetry::TelemetryStore empty;
  auto engine = WhatIfEngine::Fit(empty, nullptr, WhatIfEngine::Options());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WhatIfEngineTest, TooFewObservationsFails) {
  WhatIfFixture fx(50, 1);
  WhatIfEngine::Options options;
  options.min_observations = 100000;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, options);
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WhatIfEngineTest, LearnedModelsHaveGoodFit) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  for (const auto& [key, gm] : engine->models()) {
    // g (containers -> util) is nearly deterministic in the simulator.
    EXPECT_GT(gm.g_fit.r2, 0.8) << sim::GroupLabel(key);
    // f (util -> latency) carries noise but must explain most variance.
    EXPECT_GT(gm.f_fit.r2, 0.1) << sim::GroupLabel(key);
    EXPECT_GT(gm.num_machines, 0);
  }
}

TEST(WhatIfEngineTest, RecoversGroundTruthUtilizationSlope) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  // Ground truth: util = containers * cores_per_container / cores.
  for (const auto& [key, gm] : engine->models()) {
    double true_slope = fx.model.params().cores_per_container /
                        fx.model.catalog().spec(key.sku).cores;
    EXPECT_NEAR(gm.g.coefficients()[0], true_slope, true_slope * 0.25)
        << sim::GroupLabel(key);
  }
}

TEST(WhatIfEngineTest, PredictionsMatchSimulatorAtOperatingPoint) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  for (const auto& [key, gm] : engine->models()) {
    auto util = engine->PredictUtilization(key, gm.current_containers);
    ASSERT_TRUE(util.ok());
    EXPECT_NEAR(*util, gm.current_utilization, 0.08) << sim::GroupLabel(key);

    auto latency = engine->PredictTaskLatency(key, gm.current_containers);
    ASSERT_TRUE(latency.ok());
    EXPECT_NEAR(*latency, gm.current_latency_s, gm.current_latency_s * 0.15)
        << sim::GroupLabel(key);
  }
}

TEST(WhatIfEngineTest, LatencyPredictionIncreasesWithContainers) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  for (const auto& [key, gm] : engine->models()) {
    double lo = engine->PredictTaskLatency(key, gm.current_containers - 1).value();
    double hi = engine->PredictTaskLatency(key, gm.current_containers + 1).value();
    EXPECT_GT(hi, lo) << sim::GroupLabel(key);
  }
}

TEST(WhatIfEngineTest, UnknownGroupIsNotFound) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->PredictUtilization({9, 9}, 5.0).status().code(),
            StatusCode::kNotFound);
}

TEST(WhatIfEngineTest, ClusterLatencyIsTaskWeightedMean) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  auto current = engine->CurrentClusterLatency();
  ASSERT_TRUE(current.ok());
  // Must lie within the span of per-group latencies.
  double lo = 1e300, hi = -1e300;
  for (const auto& [key, gm] : engine->models()) {
    double w = engine->PredictTaskLatency(key, gm.current_containers).value();
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  }
  EXPECT_GE(*current, lo);
  EXPECT_LE(*current, hi);
}

TEST(WhatIfEngineTest, ClusterLatencyMissingGroupFails) {
  WhatIfFixture fx;
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(engine.ok());
  std::map<sim::MachineGroupKey, double> containers;
  containers[{9, 9}] = 5.0;
  EXPECT_EQ(engine->PredictClusterLatency(containers).status().code(),
            StatusCode::kNotFound);
}

TEST(WhatIfEngineTest, OlsAndHuberBothWork) {
  WhatIfFixture fx;
  WhatIfEngine::Options ols;
  ols.regressor = RegressorKind::kOls;
  auto engine_ols = WhatIfEngine::Fit(fx.store, nullptr, ols);
  ASSERT_TRUE(engine_ols.ok());

  WhatIfEngine::Options huber;
  huber.regressor = RegressorKind::kHuber;
  auto engine_huber = WhatIfEngine::Fit(fx.store, nullptr, huber);
  ASSERT_TRUE(engine_huber.ok());

  // On well-behaved simulated data the two should roughly agree.
  for (const auto& [key, gm] : engine_ols->models()) {
    const auto& hm = engine_huber->models().at(key);
    EXPECT_NEAR(gm.g.coefficients()[0], hm.g.coefficients()[0],
                std::fabs(gm.g.coefficients()[0]) * 0.2 + 1e-6);
  }
}

TEST(WhatIfEngineTest, FilterScopesTheFit) {
  WhatIfFixture fx;
  auto sc1_only = WhatIfEngine::Fit(
      fx.store, [](const telemetry::MachineHourRecord& r) { return r.sc == 0; },
      WhatIfEngine::Options());
  ASSERT_TRUE(sc1_only.ok());
  EXPECT_EQ(sc1_only->models().size(), 6u);
  for (const auto& [key, gm] : sc1_only->models()) {
    EXPECT_EQ(key.sc, 0);
  }
}

TEST(WhatIfEngineTest, IdleMachineHoursStayOutOfTheColumns) {
  // Idle machine-hours carry no task-latency signal. A store that holds an
  // idle twin (absurd containers and utilization, no tasks) beside every
  // record fits the models and validates the medians of the busy records
  // alone, bit for bit, though the twins double each group's record count.
  WhatIfFixture fx(60, 72);
  telemetry::TelemetryStore mixed;
  fx.store.ForEach(nullptr, [&mixed](const telemetry::MachineHourRecord& r) {
    telemetry::MachineHourRecord idle = r;
    idle.avg_running_containers = 1e6;
    idle.cpu_utilization = 1.0;
    idle.tasks_finished = 0.0;
    idle.avg_task_latency_s = 0.0;
    mixed.Append(idle);
    mixed.Append(r);
  });
  const auto busy = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  const auto both = WhatIfEngine::Fit(mixed, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(busy.ok()) << busy.status();
  ASSERT_TRUE(both.ok()) << both.status();
  EXPECT_EQ(both->models().size(), busy->models().size());
  EXPECT_EQ(both->ModelHash(), busy->ModelHash());

  const ModelValidator validator;
  const auto want = validator.Validate(*busy, fx.store, nullptr);
  const auto got = validator.Validate(*busy, mixed, nullptr);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->groups.size(), want->groups.size());
  for (size_t i = 0; i < got->groups.size(); ++i) {
    EXPECT_EQ(got->groups[i].observations, want->groups[i].observations);
    EXPECT_EQ(got->groups[i].observed_containers, want->groups[i].observed_containers);
    EXPECT_EQ(got->groups[i].observed_utilization, want->groups[i].observed_utilization);
    EXPECT_EQ(got->groups[i].observed_latency_s, want->groups[i].observed_latency_s);
  }
}

TEST(WhatIfEngineTest, NonFiniteBusyRecordIsRefused) {
  // A record appended past the ingestion screens: the fit refuses its group
  // instead of returning a non-finite model.
  WhatIfFixture fx(60, 48);
  telemetry::MachineHourRecord record;
  fx.store.ForEach(nullptr, [&](const telemetry::MachineHourRecord& r) {
    if (r.tasks_finished > 0.0) record = r;
  });
  ASSERT_GT(record.tasks_finished, 0.0);
  record.avg_task_latency_s = std::numeric_limits<double>::quiet_NaN();
  fx.store.Append(record);
  auto engine = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << engine.status();
}

TEST(WhatIfEngineTest, OverflowingGroupIsRefusedByEveryRegressor) {
  // Finite records whose container counts overflow the normal equations of
  // the g fit: no regressor kind returns a non-finite model with an OK
  // status.
  const double containers[] = {1e200, -3e200, 2e200, 5e199};
  telemetry::TelemetryStore store;
  for (int i = 0; i < 48; ++i) {
    telemetry::MachineHourRecord r;
    r.machine_id = i % 8;
    r.hour = i / 8;
    r.avg_running_containers = containers[i % 4];
    r.cpu_utilization = 0.3 + 0.01 * (i % 7);
    r.tasks_finished = 10.0 + i;
    r.avg_task_latency_s = 5.0 + 0.1 * (i % 5);
    store.Append(r);
  }
  for (RegressorKind kind : {RegressorKind::kOls, RegressorKind::kHuber}) {
    WhatIfEngine::Options options;
    options.regressor = kind;
    const auto engine = WhatIfEngine::Fit(store, nullptr, options);
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
        << static_cast<int>(kind) << ": " << engine.status();
  }
}

/// The clean 400-machine window and the 250-machine FaultProfile::Moderate
/// window of kea_bench's round workloads, one simulated week each.
std::vector<std::unique_ptr<apps::KeaSession>> BenchShapedSessions(uint64_t seed) {
  apps::KeaSession::Config config;
  config.seed = seed;
  config.machines = 400;
  std::vector<std::unique_ptr<apps::KeaSession>> sessions;
  sessions.push_back(std::move(apps::KeaSession::Create(config)).value());
  config.machines = 250;
  sessions.push_back(std::move(apps::KeaSession::Create(config)).value());
  apps::KeaSession::IngestionConfig ingestion;
  ingestion.seed = seed;
  ingestion.faults = sim::FaultProfile::Moderate();
  ingestion.pipeline.max_lateness_hours = 12;
  ingestion.pipeline.stuck_run_threshold = 6;
  if (!sessions[1]->EnableIngestionPipeline(ingestion).ok()) std::abort();
  for (const auto& session : sessions) {
    if (!session->Simulate(sim::kHoursPerWeek).ok()) std::abort();
  }
  return sessions;
}

/// One group's busy-record columns from GroupByKey's record copies: what
/// WhatIfEngine::Fit read before it read its columns in place.
struct BusyColumns {
  ml::Vector containers, util, tasks, latency;
  std::set<int> machines;
};

std::map<sim::MachineGroupKey, BusyColumns> ColumnsByGroup(
    const telemetry::TelemetryStore& store, const telemetry::RecordFilter& filter) {
  std::map<sim::MachineGroupKey, BusyColumns> columns;
  for (const auto& [key, records] : store.GroupByKey(filter)) {
    BusyColumns& c = columns[key];
    for (const auto& r : records) {
      if (r.tasks_finished <= 0.0) continue;
      c.containers.push_back(r.avg_running_containers);
      c.util.push_back(r.cpu_utilization);
      c.tasks.push_back(r.tasks_finished);
      c.latency.push_back(r.avg_task_latency_s);
      c.machines.insert(r.machine_id);
    }
  }
  return columns;
}

void ExpectSameMedian(double got, const ml::Vector& column, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(*ml::Quantile(column, 0.5)))
      << what;
}

void ExpectSameBits(const ml::LinearModel& got, const ml::Vector& x, const ml::Vector& y,
                    const std::string& what) {
  const StatusOr<ml::LinearModel> want =
      ml::ReferenceHuber(ml::MakeDataset1D(x, y), ml::HuberRegressor::Options());
  ASSERT_TRUE(want.ok()) << what << ": " << want.status();
  EXPECT_EQ(std::bit_cast<uint64_t>(got.intercept()),
            std::bit_cast<uint64_t>(want->intercept()))
      << what;
  ASSERT_EQ(got.coefficients().size(), 1u) << what;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.coefficients()[0]),
            std::bit_cast<uint64_t>(want->coefficients()[0]))
      << what;
}

TEST(WhatIfEngineTest, HuberModelsMatchTheMaterializedReference) {
  // Every group's g/h/f carries the bits of the textbook IRLS (materialized
  // design, nth_element MAD) on the same columns, at one thread and at four,
  // and its machine count and operating point are those of the record
  // copies. Comparing with the reference rather than a pinned hash keeps the
  // test independent of the host's libm. Each store spans many chunks; the
  // second window starts and ends inside one.
  for (const auto& session : BenchShapedSessions(7)) {
    ASSERT_GT(session->store().size(), 4 * telemetry::TelemetryStore::kChunkRecords);
    for (const auto& [begin, end] : {std::pair{0, sim::kHoursPerWeek}, std::pair{31, 149}}) {
      const std::string window = std::to_string(session->cluster().machines().size()) +
                                 " machines, [" + std::to_string(begin) + ", " +
                                 std::to_string(end) + ")";
      const telemetry::RecordFilter filter = telemetry::HourRangeFilter(begin, end);
      const auto columns = ColumnsByGroup(session->store(), filter);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(window + ", " + std::to_string(threads) + " threads");
        WhatIfEngine::Options options;
        options.num_threads = threads;
        auto engine = WhatIfEngine::Fit(session->store(), filter, options);
        ASSERT_TRUE(engine.ok()) << engine.status();
        ASSERT_EQ(engine->models().size(), 12u);
        for (const auto& [key, gm] : engine->models()) {
          const BusyColumns& c = columns.at(key);
          const std::string group = sim::GroupLabel(key);
          ExpectSameBits(gm.g, c.containers, c.util, group + " g");
          ExpectSameBits(gm.h, c.util, c.tasks, group + " h");
          ExpectSameBits(gm.f, c.util, c.latency, group + " f");
          EXPECT_EQ(gm.num_machines, static_cast<int>(c.machines.size())) << group;
          ExpectSameMedian(gm.current_containers, c.containers, group + " containers");
          ExpectSameMedian(gm.current_utilization, c.util, group + " utilization");
          ExpectSameMedian(gm.current_tasks_per_hour, c.tasks, group + " tasks");
          ExpectSameMedian(gm.current_latency_s, c.latency, group + " latency");
        }
      }
    }
  }
}

ml::LinearModel FitAt(double tolerance, const ml::Vector& x, const ml::Vector& y,
                      int* iterations = nullptr) {
  ml::HuberRegressor::Options options;
  options.tolerance = tolerance;
  options.max_iterations = 200;
  return ml::HuberRegressor(options).Fit(ml::MakeDataset1D(x, y), iterations).value();
}

/// Standard errors of a 1-D model's intercept and slope on (x, y): the
/// least-squares forms s * sqrt(1/n + mean(x)^2 / Sxx) and s / sqrt(Sxx),
/// with s the robust residual scale MAD / 0.6745 that IRLS itself uses.
std::pair<double, double> StandardErrors(const ml::LinearModel& model, const ml::Vector& x,
                                         const ml::Vector& y) {
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double sxx = 0.0;
  ml::Vector residuals(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mean) * (x[i] - mean);
    residuals[i] = y[i] - model.Predict1D(x[i]);
  }
  const double s = ml::MedianAbs(residuals) / 0.6745;
  return {s * std::sqrt(1.0 / n + mean * mean / sxx), s / std::sqrt(sxx)};
}

TEST(WhatIfEngineTest, DefaultToleranceIsWithinAThousandthOfAStandardError) {
  // IRLS stops at a 1e-4 weight tolerance. On the bench-shaped windows every
  // g/h/f coefficient must lie within 1e-3 standard errors of the fixed point
  // (a 1e-12 fit), and a fit must take at most 6 iterations on average.
  for (const auto& session : BenchShapedSessions(7)) {
    const std::string window =
        std::to_string(session->cluster().machines().size()) + " machines";
    const auto columns =
        ColumnsByGroup(session->store(), telemetry::HourRangeFilter(0, sim::kHoursPerWeek));
    int fits = 0, iterations = 0;
    double worst = 0.0;
    for (const auto& [key, c] : columns) {
      const std::pair<const ml::Vector*, const ml::Vector*> relations[] = {
          {&c.containers, &c.util}, {&c.util, &c.tasks}, {&c.util, &c.latency}};
      for (const auto& [x, y] : relations) {
        int used = 0, tight_used = 0;
        const ml::LinearModel fit = ml::HuberRegressor().Fit(ml::MakeDataset1D(*x, *y), &used).value();
        const ml::LinearModel tight = FitAt(1e-12, *x, *y, &tight_used);
        ASSERT_LT(tight_used, 200) << window << " " << sim::GroupLabel(key);
        const auto [se_intercept, se_slope] = StandardErrors(tight, *x, *y);
        worst = std::max({worst, std::fabs(fit.intercept() - tight.intercept()) / se_intercept,
                          std::fabs(fit.coefficients()[0] - tight.coefficients()[0]) / se_slope});
        iterations += used;
        ++fits;
      }
    }
    ASSERT_EQ(fits, 36) << window;
    EXPECT_LE(worst, 1e-3) << window;
    EXPECT_LE(static_cast<double>(iterations) / fits, 6.0) << window;
  }
}

TEST(WhatIfEngineTest, PlansAgreeWithTheFormerTolerance) {
  // Until a ground-truth oracle exists, the stopping rule's bar is the plan:
  // the LP's recommendations from models fit at the former 1e-8 tolerance
  // equal those from the default fit.
  for (uint64_t seed : {7, 11, 12, 13, 14}) {
    for (const auto& session : BenchShapedSessions(seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(session->cluster().machines().size()) + " machines");
      const telemetry::RecordFilter filter = telemetry::HourRangeFilter(0, sim::kHoursPerWeek);
      auto engine = WhatIfEngine::Fit(session->store(), filter, WhatIfEngine::Options());
      ASSERT_TRUE(engine.ok()) << engine.status();
      // Only g, h and f are refit: the plan reads them and the operating points.
      std::map<sim::MachineGroupKey, GroupModels> former = engine->models();
      const auto columns = ColumnsByGroup(session->store(), filter);
      for (auto& [key, gm] : former) {
        const BusyColumns& c = columns.at(key);
        gm.g = FitAt(1e-8, c.containers, c.util);
        gm.h = FitAt(1e-8, c.util, c.tasks);
        gm.f = FitAt(1e-8, c.util, c.latency);
      }
      const apps::YarnConfigTuner tuner;
      auto plan = tuner.ProposeFromEngine(*engine, session->cluster());
      auto former_plan =
          tuner.ProposeFromEngine(WhatIfEngine::FromModels(std::move(former)), session->cluster());
      ASSERT_TRUE(plan.ok() && former_plan.ok()) << plan.status() << former_plan.status();
      ASSERT_EQ(plan->recommendations.size(), former_plan->recommendations.size());
      for (size_t i = 0; i < plan->recommendations.size(); ++i) {
        const GroupRecommendation& a = plan->recommendations[i];
        const GroupRecommendation& b = former_plan->recommendations[i];
        EXPECT_EQ(a.group, b.group);
        EXPECT_EQ(a.current_max_containers, b.current_max_containers);
        EXPECT_EQ(a.recommended_max_containers, b.recommended_max_containers)
            << sim::GroupLabel(a.group);
      }
    }
  }
}

TEST(WhatIfEngineTest, IrlsIterationCounterIsThreadInvariant) {
#ifdef KEA_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
  // whatif.irls_iterations adds every Huber fit's iterations during the
  // single-threaded assembly: the same total at any thread count, equal to
  // the groups' own fits.
  WhatIfFixture fx;
  uint64_t want = 0;
  for (const auto& [key, c] : ColumnsByGroup(fx.store, nullptr)) {
    for (const auto& [x, y] : {std::pair(&c.containers, &c.util), std::pair(&c.util, &c.tasks),
                               std::pair(&c.util, &c.latency)}) {
      int used = 0;
      ASSERT_TRUE(ml::HuberRegressor().Fit(ml::MakeDataset1D(*x, *y), &used).ok());
      want += static_cast<uint64_t>(used);
    }
  }
  obs::Registry& registry = obs::Registry::Get();
  for (int threads : {1, 4, 8}) {
    WhatIfEngine::Options options;
    options.num_threads = threads;
    const uint64_t before = registry.CounterValue("whatif.irls_iterations");
    ASSERT_TRUE(WhatIfEngine::Fit(fx.store, nullptr, options).ok());
    EXPECT_EQ(registry.CounterValue("whatif.irls_iterations") - before, want)
        << threads << " threads";
  }
}

TEST(WhatIfEngineTest, IrlsRowCountersAreThreadInvariant) {
#ifdef KEA_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
  // whatif.irls_rows_reweighted and whatif.irls_row_iterations add every
  // Huber fit's kernel counts during the single-threaded assembly: the same
  // totals at any thread count, equal to the groups' own fits. The kernel
  // recomputes the weight of the outliers only, a minority of the rows.
  WhatIfFixture fx;
  uint64_t want_rows = 0, want_row_iterations = 0;
  for (const auto& [key, c] : ColumnsByGroup(fx.store, nullptr)) {
    for (const auto& [x, y] : {std::pair(&c.containers, &c.util), std::pair(&c.util, &c.tasks),
                               std::pair(&c.util, &c.latency)}) {
      ml::HuberRegressor::FitStats stats;
      ASSERT_TRUE(ml::HuberRegressor().FitLine(*x, *y, &stats).ok());
      want_rows += stats.rows_reweighted;
      want_row_iterations += static_cast<uint64_t>(stats.iterations) * x->size();
    }
  }
  EXPECT_GT(want_rows, 0u);
  EXPECT_LT(want_rows, want_row_iterations / 2);
  obs::Registry& registry = obs::Registry::Get();
  for (int threads : {1, 4, 8}) {
    WhatIfEngine::Options options;
    options.num_threads = threads;
    const uint64_t rows = registry.CounterValue("whatif.irls_rows_reweighted");
    const uint64_t row_iterations = registry.CounterValue("whatif.irls_row_iterations");
    ASSERT_TRUE(WhatIfEngine::Fit(fx.store, nullptr, options).ok());
    EXPECT_EQ(registry.CounterValue("whatif.irls_rows_reweighted") - rows, want_rows)
        << threads << " threads";
    EXPECT_EQ(registry.CounterValue("whatif.irls_row_iterations") - row_iterations,
              want_row_iterations)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace kea::core
