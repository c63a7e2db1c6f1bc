#include "apps/sc_selector.h"

#include <gtest/gtest.h>

namespace kea::apps {
namespace {

/// The experiment runs as a fabric flight, whose guardrails need a day of
/// telemetry before it starts: studies start at kStart.
constexpr sim::HourIndex kStart = sim::kHoursPerDay;

struct ScFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;

  explicit ScFixture(int machines = 1500) {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = machines;
    cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
  }

  /// Simulates the baseline day [0, kStart).
  static void Baseline(sim::FluidEngine* engine, telemetry::TelemetryStore* store) {
    ASSERT_TRUE(engine->Run(0, kStart, store).ok());
  }
};

TEST(ScSelectorTest, Sc2DominatesSc1) {
  // Table 4: SC2 (temp on SSD) increases Total Data Read and reduces task
  // latency, both with large t-values.
  ScFixture fx;
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  ScSelector::Options options;
  options.sku = 3;
  options.max_racks = 8;
  options.min_machines_per_arm = 40;
  options.workdays = 5;
  ScSelector selector(options);
  ScFixture::Baseline(&engine, &store);
  auto result = selector.Run(&fx.cluster, &engine, &store, kStart);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_TRUE(result->balance.balanced);
  EXPECT_GT(result->data_read.percent_change, 0.01);
  EXPECT_LT(result->task_latency.percent_change, -0.01);
  EXPECT_TRUE(result->data_read.significant);
  EXPECT_TRUE(result->task_latency.significant);
  EXPECT_GT(result->data_read.t_value, 3.0);
  EXPECT_LT(result->task_latency.t_value, -3.0);
  EXPECT_TRUE(result->sc2_dominates);
}

TEST(ScSelectorTest, ConfigurationRestoredAfterExperiment) {
  ScFixture fx;
  std::vector<sim::ScId> before;
  for (const sim::Machine& m : fx.cluster.machines()) before.push_back(m.sc);

  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  ScSelector::Options options;
  options.sku = 3;
  options.max_racks = 4;
  options.min_machines_per_arm = 20;
  options.workdays = 2;
  ScSelector selector(options);
  ScFixture::Baseline(&engine, &store);
  ASSERT_TRUE(selector.Run(&fx.cluster, &engine, &store, kStart).ok());

  for (size_t i = 0; i < fx.cluster.machines().size(); ++i) {
    EXPECT_EQ(fx.cluster.machines()[i].sc, before[i]) << "machine " << i;
  }
  // The group indexes follow the restored SCs.
  for (const auto& [group, ids] : fx.cluster.groups()) {
    for (int id : ids) {
      EXPECT_EQ(fx.cluster.machines()[static_cast<size_t>(id)].group(), group);
    }
  }
}

TEST(ScSelectorTest, Validation) {
  ScFixture fx(300);
  sim::FluidEngine engine(&fx.model, &fx.cluster, &fx.workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  ScSelector selector;
  EXPECT_EQ(selector.Run(nullptr, &engine, &store, 0).status().code(),
            StatusCode::kInvalidArgument);

  ScSelector::Options bad_days;
  bad_days.workdays = 0;
  EXPECT_EQ(ScSelector(bad_days).Run(&fx.cluster, &engine, &store, 0).status().code(),
            StatusCode::kInvalidArgument);

  ScSelector::Options missing_sku;
  missing_sku.sku = 42;
  EXPECT_EQ(
      ScSelector(missing_sku).Run(&fx.cluster, &engine, &store, 0).status().code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kea::apps
