// End-to-end integration tests: the full KEA observational-tuning loop on the
// simulated cluster, reproducing the Section 5.2.2 deployment story —
// simulate a baseline month, fit models, optimize, flight, deploy
// conservatively, simulate the "after" month, and verify the treatment
// effects the paper reports (throughput up at flat latency, capacity gain,
// faster benchmark jobs).

#include <gtest/gtest.h>

#include "apps/capacity.h"
#include "apps/queue_tuner.h"
#include "apps/session.h"
#include "apps/yarn_tuner.h"
#include "core/deployment.h"
#include "core/experiment_fabric.h"
#include "core/treatment.h"
#include "sim/fluid_engine.h"
#include "sim/job_sim.h"
#include "telemetry/perf_monitor.h"

namespace kea {
namespace {

class ObservationalTuningLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = 800;
    cluster_ = std::move(sim::Cluster::Build(model_.catalog(), spec)).value();
    engine_ = std::make_unique<sim::FluidEngine>(&model_, &cluster_, &workload_,
                                                 sim::FluidEngine::Options());
  }

  sim::PerfModel model_ = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload_ = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster_;
  std::unique_ptr<sim::FluidEngine> engine_;
  telemetry::TelemetryStore store_;

  static constexpr int kBeforeHours = 21 * sim::kHoursPerDay;  // Three weeks.
  static constexpr int kAfterHours = 21 * sim::kHoursPerDay;
};

TEST_F(ObservationalTuningLoop, FullDeploymentImprovesThroughputAtFlatLatency) {
  // 1. Baseline period.
  ASSERT_TRUE(engine_->Run(0, kBeforeHours, &store_).ok());

  // 2. Observational tuning: fit + optimize on the baseline telemetry.
  apps::YarnConfigTuner::Options topt;
  topt.max_step = 2;
  apps::YarnConfigTuner tuner(topt);
  auto plan = tuner.Propose(store_, telemetry::HourRangeFilter(0, kBeforeHours),
                            cluster_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(plan->recommendations.empty());

  // 3. Flighting: pilot the change on one group's SKU before fleet-wide
  //    rollout (the Section 5.2.2 pilot ladder, compressed to one rung): one
  //    guarded fabric flight, 20 machines per arm, two days.
  const core::GroupRecommendation* pilot_rec = nullptr;
  for (const auto& rec : plan->recommendations) {
    if (rec.recommended_max_containers > rec.current_max_containers) {
      pilot_rec = &rec;
      break;
    }
  }
  ASSERT_NE(pilot_rec, nullptr) << "expected at least one group to grow";
  core::FlightRequest pilot;
  pilot.name = "pilot";
  pilot.sku = pilot_rec->group.sku;
  pilot.arms.resize(2);
  pilot.arms[1].max_containers = pilot_rec->current_max_containers + 1;
  pilot.machines_per_arm = 20;
  pilot.window_hours = 24;
  pilot.num_windows = 2;
  pilot.guardrails.max_latency_ratio = 1.5;
  pilot.guardrails.max_queue_p99_ratio = 5.0;
  pilot.guardrails.queue_p99_floor_ms = 500.0;
  // The pilot starts on a Monday: its guardrail baseline is the whole week
  // before, not the quiet Sunday alone.
  core::ExperimentFabric::Options fabric;
  fabric.baseline_hours = sim::kHoursPerWeek;
  sim::HourIndex now = kBeforeHours;
  auto flown = core::ExperimentFabric(fabric)
                   .Run({pilot}, &cluster_, &store_, now,
                        [&](int hours) {
                          KEA_RETURN_IF_ERROR(engine_->Run(now, hours, &store_));
                          now += hours;
                          return Status::OK();
                        },
                        nullptr);
  ASSERT_TRUE(flown.ok()) << flown.status();
  const core::ExperimentFabric::FlightConclusion& flight = flown->flights[0];
  ASSERT_TRUE(core::ConclusionStatus(flight).ok()) << core::ConclusionStatus(flight);
  ASSERT_EQ(flight.start_hour, kBeforeHours);
  ASSERT_EQ(flight.end_hour, kBeforeHours + 48);
  const std::vector<int>& pilot_machines = flight.arms[1].machines;

  // The pilot must confirm that raising the config raises the real observed
  // container count (the paper's first pilot flighting).
  auto pilot_filter = telemetry::AndFilter(
      telemetry::HourRangeFilter(kBeforeHours, kBeforeHours + 48),
      telemetry::MachineSetFilter(pilot_machines));
  auto base_filter = telemetry::AndFilter(
      telemetry::HourRangeFilter(0, kBeforeHours),
      telemetry::MachineSetFilter(pilot_machines));
  telemetry::PerformanceMonitor monitor(&store_);
  double pilot_containers = 0.0, base_containers = 0.0;
  {
    auto pilot_records = store_.Query(pilot_filter);
    auto base_records = store_.Query(base_filter);
    ASSERT_FALSE(pilot_records.empty());
    ASSERT_FALSE(base_records.empty());
    for (const auto& r : pilot_records) pilot_containers += r.avg_running_containers;
    pilot_containers /= static_cast<double>(pilot_records.size());
    for (const auto& r : base_records) base_containers += r.avg_running_containers;
    base_containers /= static_cast<double>(base_records.size());
  }
  EXPECT_GT(pilot_containers, base_containers);
  // The flight ended: the pilot config is gone before the rollout.
  for (int id : pilot_machines) {
    EXPECT_EQ(cluster_.machines()[static_cast<size_t>(id)].max_containers,
              pilot_rec->current_max_containers);
  }

  // 4. Conservative fleet-wide rollout (max_step = 1 per round, like the
  //    paper's first production round).
  core::DeploymentModule deploy;
  auto applied = deploy.ApplyConservatively(plan->recommendations, &cluster_);
  ASSERT_TRUE(applied.ok());
  ASSERT_FALSE(applied->empty());

  // 5. The "after" period.
  const int after_start = kBeforeHours + 48;
  ASSERT_TRUE(engine_->Run(after_start, kAfterHours, &store_).ok());

  // 6. Treatment effects (Section 5.2.2): with the same level of latency,
  //    throughput improves.
  auto before = telemetry::HourRangeFilter(0, kBeforeHours);
  auto after = telemetry::HourRangeFilter(after_start, after_start + kAfterHours);

  auto before_latency = monitor.ClusterAverageTaskLatency(before);
  auto after_latency = monitor.ClusterAverageTaskLatency(after);
  ASSERT_TRUE(before_latency.ok());
  ASSERT_TRUE(after_latency.ok());
  EXPECT_NEAR(*after_latency / *before_latency, 1.0, 0.02)
      << "latency must stay flat";

  double before_data = monitor.TotalDataReadMb(before) / kBeforeHours;
  double after_data = monitor.TotalDataReadMb(after) / kAfterHours;
  EXPECT_GT(after_data / before_data, 1.005) << "throughput must improve";

  // 7. Capacity conversion (Section 5.3): positive capacity gain at flat
  //    latency, worth millions at fleet scale.
  apps::CapacityConverter converter;
  auto report = converter.FromWindows(store_, before, after);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->capacity_gain, 0.003);
  EXPECT_TRUE(report->latency_neutral);
  EXPECT_GT(report->dollars_per_year, 1e6);
}

TEST_F(ObservationalTuningLoop, BenchmarkJobsFasterAfterDeployment) {
  // Figure 11: benchmark job runtimes improve after the KEA deployment.
  ASSERT_TRUE(engine_->Run(0, kBeforeHours, &store_).ok());

  sim::JobSimulator::Options jopt;
  jopt.seed = 99;
  sim::JobSimulator before_sim(&model_, &cluster_, &workload_, jopt);
  auto before = before_sim.Run(sim::BenchmarkJobTemplates(), 6 * sim::kSecondsPerHour);
  ASSERT_TRUE(before.ok());

  apps::YarnConfigTuner tuner;
  auto plan = tuner.Propose(store_, nullptr, cluster_);
  ASSERT_TRUE(plan.ok());
  core::DeploymentModule deploy;
  ASSERT_TRUE(deploy.ApplyConservatively(plan->recommendations, &cluster_).ok());

  sim::JobSimulator after_sim(&model_, &cluster_, &workload_, jopt);
  auto after = after_sim.Run(sim::BenchmarkJobTemplates(), 6 * sim::kSecondsPerHour);
  ASSERT_TRUE(after.ok());

  auto mean_runtime = [](const std::vector<telemetry::JobRecord>& jobs) {
    double sum = 0.0;
    for (const auto& j : jobs) sum += j.runtime_s;
    return sum / static_cast<double>(jobs.size());
  };
  ASSERT_GT(before->jobs.size(), 20u);
  ASSERT_GT(after->jobs.size(), 20u);
  // Re-balancing shifts work from straggler-prone slow machines to fast
  // ones; job-level runtime (dominated by critical-path tasks) improves.
  EXPECT_LT(mean_runtime(after->jobs), mean_runtime(before->jobs) * 1.01);
}

TEST_F(ObservationalTuningLoop, SecondRoundFindsLessHeadroom) {
  // Repeated tuning rounds should converge: the second round's predicted
  // gain (with the same step budget) is no larger than the first's.
  ASSERT_TRUE(engine_->Run(0, kBeforeHours, &store_).ok());
  apps::YarnConfigTuner tuner;
  auto plan1 = tuner.Propose(store_, telemetry::HourRangeFilter(0, kBeforeHours),
                             cluster_);
  ASSERT_TRUE(plan1.ok());
  core::DeploymentModule deploy;
  ASSERT_TRUE(deploy.ApplyConservatively(plan1->recommendations, &cluster_).ok());

  ASSERT_TRUE(engine_->Run(kBeforeHours, kAfterHours, &store_).ok());
  auto plan2 = tuner.Propose(
      store_,
      telemetry::HourRangeFilter(kBeforeHours, kBeforeHours + kAfterHours),
      cluster_);
  ASSERT_TRUE(plan2.ok());
  EXPECT_LE(plan2->predicted_capacity_gain,
            plan1->predicted_capacity_gain + 0.01);
}

TEST(KeaSessionLifecycle, ThreeRoundsConvergeWithValidModels) {
  // The recurring production loop (Figure 3) through the KeaSession facade:
  // simulate -> tune -> deploy -> simulate -> validate, three rounds. Gains
  // shrink round over round (convergence) and the models keep validating.
  apps::KeaSession::Config config;
  config.machines = 600;
  auto session_or = apps::KeaSession::Create(config);
  ASSERT_TRUE(session_or.ok());
  apps::KeaSession& session = **session_or;

  ASSERT_TRUE(session.Simulate(sim::kHoursPerWeek).ok());

  double previous_gain = 1e9;
  for (int round = 0; round < 3; ++round) {
    auto tuning = session.RunYarnTuningRound(apps::YarnConfigTuner::Options(),
                                             sim::kHoursPerWeek, 1);
    ASSERT_TRUE(tuning.ok()) << "round " << round << ": " << tuning.status();
    EXPECT_LE(tuning->plan.predicted_capacity_gain, previous_gain + 0.01)
        << "round " << round;
    previous_gain = tuning->plan.predicted_capacity_gain;

    ASSERT_TRUE(session.Simulate(sim::kHoursPerWeek).ok());
    auto validation = session.ValidateModels(core::ModelValidator::Options());
    ASSERT_TRUE(validation.ok()) << "round " << round;
    EXPECT_TRUE(validation->models_valid) << "round " << round;
  }
  // Three rounds of +-1 steps should have moved the cluster toward the
  // optimizer's continuous solution: the last round's residual gain is small.
  EXPECT_LT(previous_gain, 0.04);
}

TEST(KeaSessionLifecycle, QueueAndYarnTuningCompose) {
  // Queue tuning (Section 5.3) on top of container tuning: both applied, the
  // cluster still behaves and total capacity reflects the container change
  // only (queue slots are capacity-neutral by construction).
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadSpec wspec = sim::WorkloadSpec::Default();
  wspec.base_demand_fraction = 1.25;  // Overloaded so queues form.
  auto workload = sim::WorkloadModel::Create(wspec);
  ASSERT_TRUE(workload.ok());
  sim::ClusterSpec cspec = sim::ClusterSpec::Default();
  cspec.total_machines = 600;
  auto cluster = sim::Cluster::Build(model.catalog(), cspec);
  ASSERT_TRUE(cluster.ok());
  sim::FluidEngine engine(&model, &cluster.value(), &workload.value(),
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;
  ASSERT_TRUE(engine.Run(0, 96, &store).ok());

  apps::YarnConfigTuner yarn_tuner;
  auto yarn_plan = yarn_tuner.Propose(store, nullptr, cluster.value());
  ASSERT_TRUE(yarn_plan.ok());
  core::DeploymentModule deploy;
  ASSERT_TRUE(
      deploy.ApplyConservatively(yarn_plan->recommendations, &cluster.value()).ok());

  apps::QueueTuner queue_tuner;
  auto queue_plan = queue_tuner.Propose(store, nullptr, cluster.value());
  ASSERT_TRUE(queue_plan.ok());
  int64_t queue_slots_before = cluster->TotalQueueSlots();
  ASSERT_TRUE(apps::QueueTuner::Apply(*queue_plan, &cluster.value()).ok());
  // Queue capacity conserved within rounding.
  EXPECT_NEAR(static_cast<double>(cluster->TotalQueueSlots()),
              static_cast<double>(queue_slots_before),
              static_cast<double>(queue_slots_before) * 0.03);

  telemetry::TelemetryStore after;
  ASSERT_TRUE(engine.Run(200, 48, &after).ok());
  EXPECT_EQ(after.size(), cluster->size() * 48u);
}

}  // namespace
}  // namespace kea
