#include "core/whatif.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "apps/session.h"
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
  for (RegressorKind kind : {RegressorKind::kOls, RegressorKind::kAuto, RegressorKind::kHuber}) {
    WhatIfEngine::Options options;
    options.regressor = kind;
    const auto engine = WhatIfEngine::Fit(store, nullptr, options);
    EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition)
        << static_cast<int>(kind) << ": " << engine.status();
  }
}

/// One group's busy-record columns, read as WhatIfEngine::Fit reads them.
struct BusyColumns {
  ml::Vector containers, util, tasks, latency;
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
    }
  }
  return columns;
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
  // design, nth_element MAD) on the same columns, at one thread and at four.
  // Comparing with the reference rather than a pinned hash keeps the test
  // independent of the host's libm.
  apps::KeaSession::Config config;
  config.seed = 7;
  config.machines = 400;
  auto clean = std::move(apps::KeaSession::Create(config)).value();
  config.machines = 250;
  auto dirty = std::move(apps::KeaSession::Create(config)).value();
  apps::KeaSession::IngestionConfig ingestion;
  ingestion.seed = 7;
  ingestion.faults = sim::FaultProfile::Moderate();
  ingestion.pipeline.max_lateness_hours = 12;
  ingestion.pipeline.stuck_run_threshold = 6;
  ASSERT_TRUE(dirty->EnableIngestionPipeline(ingestion).ok());
  for (apps::KeaSession* session : {clean.get(), dirty.get()}) {
    ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());
    const std::string window =
        std::to_string(session->cluster().machines().size()) + " machines";
    const telemetry::RecordFilter filter =
        telemetry::HourRangeFilter(0, sim::kHoursPerWeek);
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
      }
    }
  }
}

}  // namespace
}  // namespace kea::core
