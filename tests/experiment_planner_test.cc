#include "apps/experiment_planner.h"

#include <gtest/gtest.h>

#include "sim/fluid_engine.h"

namespace kea::apps {
namespace {

struct PlannerFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  telemetry::TelemetryStore store;

  explicit PlannerFixture(int machines = 800) {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = machines;
    cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
    sim::FluidEngine engine(&model, &cluster, &workload, sim::FluidEngine::Options());
    (void)engine.Run(0, sim::kHoursPerWeek, &store);
  }
};

TEST(ExperimentPlannerTest, ProducesFeasiblePlanOnLargeSku) {
  PlannerFixture fx;
  ExperimentPlanner planner;
  auto plan = planner.PlanDataReadExperiment(fx.store, fx.cluster, 4);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->relative_stddev, 0.0);
  EXPECT_GT(plan->machine_days_per_arm, 0);
  EXPECT_GT(plan->machines_per_arm, 0);
  EXPECT_GE(plan->days, 1);
  EXPECT_LE(plan->days, 10);
  EXPECT_TRUE(plan->feasible);
  // The recommended shape must actually achieve the requested MDE.
  EXPECT_LE(plan->achieved_mde, 0.0105);
}

TEST(ExperimentPlannerTest, SmallerEffectNeedsMoreMachineDays) {
  PlannerFixture fx;
  ExperimentPlanner::Options coarse;
  coarse.min_detectable_effect = 0.05;
  ExperimentPlanner::Options fine;
  fine.min_detectable_effect = 0.005;
  auto coarse_plan =
      ExperimentPlanner(coarse).PlanDataReadExperiment(fx.store, fx.cluster, 4);
  auto fine_plan =
      ExperimentPlanner(fine).PlanDataReadExperiment(fx.store, fx.cluster, 4);
  ASSERT_TRUE(coarse_plan.ok());
  ASSERT_TRUE(fine_plan.ok());
  EXPECT_GT(fine_plan->machine_days_per_arm,
            coarse_plan->machine_days_per_arm * 20);
}

TEST(ExperimentPlannerTest, InfeasibleOnTinySku) {
  // A tiny cluster can't field enough machines for a very fine experiment.
  PlannerFixture fx(100);
  ExperimentPlanner::Options options;
  options.min_detectable_effect = 0.001;
  options.max_days = 2;
  ExperimentPlanner planner(options);
  auto plan = planner.PlanDataReadExperiment(fx.store, fx.cluster, 0);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->feasible);
}

TEST(ExperimentPlannerTest, Validation) {
  PlannerFixture fx(100);
  ExperimentPlanner::Options bad;
  bad.min_detectable_effect = 0.0;
  EXPECT_FALSE(ExperimentPlanner(bad)
                   .PlanDataReadExperiment(fx.store, fx.cluster, 0)
                   .ok());
  bad = ExperimentPlanner::Options();
  bad.max_days = 0;
  EXPECT_FALSE(ExperimentPlanner(bad)
                   .PlanDataReadExperiment(fx.store, fx.cluster, 0)
                   .ok());

  telemetry::TelemetryStore empty;
  ExperimentPlanner planner;
  EXPECT_EQ(planner.PlanDataReadExperiment(empty, fx.cluster, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ExperimentPlannerTest, ZeroVarianceTelemetryIsRejected) {
  // Regression: constant machine-days have zero noise, which used to drive
  // the power analysis to a degenerate plan (0-machine arms / infinite MDE).
  // Hand-build a store where every machine reads exactly the same amount.
  PlannerFixture fx(100);
  telemetry::TelemetryStore constant;
  for (int machine = 0; machine < 40; ++machine) {
    for (int hour = 0; hour < 24; ++hour) {
      telemetry::MachineHourRecord r;
      r.machine_id = machine;
      r.hour = hour;
      r.sku = 0;
      r.data_read_mb = 100.0;
      r.tasks_finished = 10.0;
      r.avg_task_latency_s = 1.0;
      constant.Append(r);
    }
  }
  ExperimentPlanner planner;
  auto plan = planner.PlanDataReadExperiment(constant, fx.cluster, 0);
  ASSERT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(plan.status().message().find("zero variance"), std::string::npos)
      << plan.status();
}

TEST(ExperimentPlannerTest, BatchPlanSplitsFeasibleAndSkipped) {
  PlannerFixture fx;
  ExperimentPlanner planner;
  // SKUs 3 and 4 are large and well-sampled; SKU 99 has no telemetry at all.
  auto batch = planner.PlanDataReadBatch(fx.store, fx.cluster, {3, 4, 99});
  ASSERT_EQ(batch.plans.size(), 2u);
  EXPECT_EQ(batch.plans[0].sku, 3);
  EXPECT_EQ(batch.plans[1].sku, 4);
  for (const auto& plan : batch.plans) EXPECT_TRUE(plan.feasible);
  ASSERT_EQ(batch.skipped.size(), 1u);
  EXPECT_EQ(batch.skipped[0].first, 99);

  // An infeasibly fine experiment is skipped with the capacity reason, not
  // returned as a plan the fabric would then fail to admit.
  ExperimentPlanner::Options fine;
  fine.min_detectable_effect = 0.001;
  fine.max_days = 2;
  auto tight = ExperimentPlanner(fine).PlanDataReadBatch(fx.store, fx.cluster, {0});
  EXPECT_TRUE(tight.plans.empty());
  ASSERT_EQ(tight.skipped.size(), 1u);
  EXPECT_NE(tight.skipped[0].second.find("not enough machines"),
            std::string::npos);
}

TEST(ExperimentPlannerTest, ToFlightRequestsShapesTheFabricQueue) {
  ExperimentPlanner::BatchPlan batch;
  ExperimentPlanner::Plan plan;
  plan.sku = 3;
  plan.machines_per_arm = 10;
  plan.days = 2;
  plan.feasible = true;
  batch.plans.push_back(plan);
  plan.sku = 5;
  plan.machines_per_arm = 4;
  plan.days = 1;
  batch.plans.push_back(plan);

  core::ConfigPatch treatment;
  treatment.feature_enabled = true;
  auto requests = ExperimentPlanner::ToFlightRequests(batch, treatment, 6);
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].name, "data-read-sku3");
  EXPECT_EQ(requests[0].sku, 3);
  EXPECT_EQ(requests[0].machines_per_arm, 10);
  EXPECT_EQ(requests[0].window_hours, 6);
  EXPECT_EQ(requests[0].num_windows, 8);  // 2 days / 6h windows.
  EXPECT_EQ(requests[1].num_windows, 4);
  // Arms {unpatched control, treatment}.
  ASSERT_EQ(requests[1].arms.size(), 2u);
  EXPECT_TRUE(requests[1].arms[0].empty());
  ASSERT_TRUE(requests[1].arms[1].feature_enabled.has_value());
  EXPECT_TRUE(*requests[1].arms[1].feature_enabled);

  // A 7-hour window doesn't divide a day: the partial trailing window is
  // dropped from the horizon (3 whole windows of 24h), never fabricated.
  auto odd = ExperimentPlanner::ToFlightRequests(batch, treatment, 7);
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(odd[1].num_windows, 3);

  EXPECT_TRUE(ExperimentPlanner::ToFlightRequests(batch, treatment, 0).empty());
}

}  // namespace
}  // namespace kea::apps
