#include "apps/power_capping.h"

#include <gtest/gtest.h>

namespace kea::apps {
namespace {

/// Every round is a fabric flight, whose guardrails need a day of telemetry
/// before it starts: studies start at kStart.
constexpr sim::HourIndex kStart = sim::kHoursPerDay;

struct PowerFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;

  PowerFixture() {
    // Heavy steady demand so machines run hot and deep caps bind.
    sim::WorkloadSpec spec = sim::WorkloadSpec::Default();
    spec.base_demand_fraction = 1.1;
    spec.diurnal_amplitude = 0.05;
    workload = std::move(sim::WorkloadModel::Create(spec)).value();

    sim::ClusterSpec cs = sim::ClusterSpec::Default();
    cs.total_machines = 1200;
    cluster = std::move(sim::Cluster::Build(model.catalog(), cs)).value();
  }

  /// Simulates the baseline day [0, kStart).
  static void Baseline(sim::FluidEngine* engine, telemetry::TelemetryStore* store) {
    ASSERT_TRUE(engine->Run(0, kStart, store).ok());
  }
};

TEST(PowerCappingTest, ProducesAllCells) {
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  PowerCappingStudy::Options options;
  options.sku = 4;
  options.group_size = 60;
  options.cap_levels = {0.10, 0.20, 0.30};
  options.hours_per_round = 26;
  PowerCappingStudy study(options);
  PowerFixture::Baseline(&engine, &store);
  auto result = study.Run(fx.model, &fx.cluster, &engine, &store, kStart);
  ASSERT_TRUE(result.ok()) << result.status();
  // 1 feature-only cell + 2 per cap level.
  EXPECT_EQ(result->cells.size(), 1u + 2u * 3u);
}

TEST(PowerCappingTest, FeatureHelpsAndDeepCapsHurt) {
  // The Figure 15 shape.
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  PowerCappingStudy::Options options;
  options.sku = 4;
  options.group_size = 60;
  options.cap_levels = {0.10, 0.30};
  options.hours_per_round = 30;
  PowerCappingStudy study(options);
  PowerFixture::Baseline(&engine, &store);
  auto result = study.Run(fx.model, &fx.cluster, &engine, &store, kStart);
  ASSERT_TRUE(result.ok());

  double feature_only = 0.0, cap10_on = 0.0, cap10_off = 0.0;
  double cap30_on = 0.0, cap30_off = 0.0;
  for (const auto& cell : result->cells) {
    if (!cell.capped) {
      feature_only = cell.bytes_per_cpu_time_change;
    } else if (cell.cap_level == 0.10) {
      (cell.feature ? cap10_on : cap10_off) = cell.bytes_per_cpu_time_change;
    } else {
      (cell.feature ? cap30_on : cap30_off) = cell.bytes_per_cpu_time_change;
    }
  }
  // Feature alone improves throughput per CPU time.
  EXPECT_GT(feature_only, 0.0);
  // Feature on beats feature off at every cap level.
  EXPECT_GT(cap10_on, cap10_off);
  EXPECT_GT(cap30_on, cap30_off);
  // Deep capping is worse than shallow capping (feature off).
  EXPECT_LT(cap30_off, cap10_off + 0.01);
  // A shallow cap is nearly free.
  EXPECT_GT(cap10_off, -0.04);
}

TEST(PowerCappingTest, RecommendsANonTrivialCap) {
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  PowerCappingStudy::Options options;
  options.sku = 4;
  options.group_size = 60;
  options.cap_levels = {0.10, 0.15};
  options.hours_per_round = 26;
  PowerCappingStudy study(options);
  PowerFixture::Baseline(&engine, &store);
  auto result = study.Run(fx.model, &fx.cluster, &engine, &store, kStart);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->recommended_cap_level, 0.0);
  EXPECT_GT(result->provisioned_watts_saved_per_machine, 0.0);
}

TEST(PowerCappingTest, Validation) {
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  PowerCappingStudy study;
  EXPECT_EQ(study.Run(fx.model, nullptr, &engine, &store, 0).status().code(),
            StatusCode::kInvalidArgument);

  PowerCappingStudy::Options bad_caps;
  bad_caps.cap_levels = {1.5};
  EXPECT_EQ(PowerCappingStudy(bad_caps)
                .Run(fx.model, &fx.cluster, &engine, &store, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PowerCappingStudy::Options no_caps;
  no_caps.cap_levels.clear();
  EXPECT_EQ(PowerCappingStudy(no_caps)
                .Run(fx.model, &fx.cluster, &engine, &store, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  PowerCappingStudy::Options too_big;
  too_big.group_size = 100000;
  EXPECT_EQ(PowerCappingStudy(too_big)
                .Run(fx.model, &fx.cluster, &engine, &store, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PowerCappingTest, RoundWithoutBaselineDayTripsAsUnmeasurable) {
  // No telemetry before the first round: its guardrail baseline is empty,
  // the fabric trips it at window 0, and the study names the evidence.
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  PowerCappingStudy::Options options;
  options.sku = 4;
  options.group_size = 20;
  options.cap_levels = {0.20};
  PowerCappingStudy study(options);
  auto result = study.Run(fx.model, &fx.cluster, &engine, &store, 0);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("unmeasurable"), std::string::npos)
      << result.status();
  for (const sim::Machine& m : fx.cluster.machines()) {
    EXPECT_DOUBLE_EQ(m.power_cap_fraction, 0.0) << m.id;
    EXPECT_FALSE(m.feature_enabled) << m.id;
  }
}

TEST(PowerCappingTest, ConfigurationRestoredAfterStudy) {
  PowerFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  PowerCappingStudy::Options options;
  options.sku = 4;
  options.group_size = 40;
  options.cap_levels = {0.20};
  options.hours_per_round = 26;
  PowerCappingStudy study(options);
  PowerFixture::Baseline(&engine, &store);
  ASSERT_TRUE(study.Run(fx.model, &fx.cluster, &engine, &store, kStart).ok());
  for (const sim::Machine& m : fx.cluster.machines()) {
    EXPECT_DOUBLE_EQ(m.power_cap_fraction, 0.0) << m.id;
    EXPECT_FALSE(m.feature_enabled) << m.id;
  }
}

}  // namespace
}  // namespace kea::apps
