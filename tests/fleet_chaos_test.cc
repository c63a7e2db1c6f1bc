// Tests for the fleet chaos engine and the drift-aware self-healing loop:
// FleetFaultInjector unit behavior (determinism, correlation, recovery),
// engine integration (faults surface only through normal telemetry), and the
// full four-scenario chaos sweep — crash storm, rack outages, slow
// degradation, drift-then-recover — asserting that the ModelHealth breaker
// trips, holds the last known-good config, refuses deployments, refits on
// post-drift telemetry, and re-arms through the validation gate. Labelled
// "chaos" in ctest.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "reference_faults.h"
#include "sim/fleet_fault_injector.h"
#include "sim/fluid_engine.h"
#include "sim/job_sim.h"

namespace kea::sim {
namespace {

Cluster MakeCluster(int machines = 300) {
  ClusterSpec spec = ClusterSpec::Default();
  spec.total_machines = machines;
  return std::move(Cluster::Build(SkuCatalog::Default(), spec)).value();
}

TEST(FleetFaultInjectorTest, EmptyProfileInjectsNothing) {
  Cluster cluster = MakeCluster(100);
  FleetFaultInjector injector(&cluster, FleetFaultProfile::None(), 1);
  injector.BeginHour(500);
  EXPECT_EQ(injector.machines_down_now(), 0u);
  EXPECT_EQ(injector.machines_degraded_now(), 0u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    MachineHealth h = injector.Health(i);
    EXPECT_TRUE(h.up);
    EXPECT_EQ(h.speed, 1.0);
  }
  const auto& c = injector.counters();
  EXPECT_EQ(c.crashes + c.rack_outages + c.degradations + c.recoveries +
                c.permanent_losses + c.machine_down_hours,
            0u);
}

TEST(FleetFaultInjectorTest, CrashStormChurnsAndRepairs) {
  Cluster cluster = MakeCluster(300);
  FleetFaultProfile profile;
  profile.crash_rate_per_hour = 0.01;
  profile.mean_repair_hours = 8.0;
  FleetFaultInjector injector(&cluster, profile, 7);
  injector.BeginHour(500);
  const auto& c = injector.counters();
  EXPECT_GT(c.crashes, 100u);  // ~300 * 500 * 0.01 expected.
  EXPECT_GT(c.machine_down_hours, 0u);
  // Machines repair: far fewer down now than have ever crashed.
  EXPECT_LT(injector.machines_down_now(), cluster.size() / 2);
  // Steady-state downtime ~ rate * repair / (1 + rate * repair) ~ 7.4%.
  double down_fraction = static_cast<double>(c.machine_down_hours) /
                         (static_cast<double>(cluster.size()) * 501.0);
  EXPECT_GT(down_fraction, 0.02);
  EXPECT_LT(down_fraction, 0.20);
}

TEST(FleetFaultInjectorTest, RackOutagesTakeWholeRacksDown) {
  Cluster cluster = MakeCluster(300);
  FleetFaultProfile profile;
  profile.rack_outage_rate_per_hour = 0.02;
  profile.mean_rack_outage_hours = 12.0;
  FleetFaultInjector injector(&cluster, profile, 11);

  bool saw_outage = false;
  for (HourIndex hour = 0; hour <= 400; ++hour) {
    injector.BeginHour(hour);
    if (injector.machines_down_now() == 0) continue;
    saw_outage = true;
    // Down machines must be a union of whole racks: if any machine in a
    // rack is down, every machine in that rack is down.
    std::set<int> down_racks;
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (!injector.Health(i).up) down_racks.insert(cluster.machines()[i].rack);
    }
    for (size_t i = 0; i < cluster.size(); ++i) {
      if (down_racks.count(cluster.machines()[i].rack) > 0) {
        EXPECT_FALSE(injector.Health(i).up)
            << "machine " << i << " up inside a dark rack at hour " << hour;
      }
    }
  }
  EXPECT_TRUE(saw_outage);
  EXPECT_GT(injector.counters().rack_outages, 0u);
}

TEST(FleetFaultInjectorTest, DegradedMachinesRecover) {
  Cluster cluster = MakeCluster(200);
  FleetFaultProfile profile;
  profile.degrade_rate_per_hour = 0.005;
  profile.degrade_severity = 0.4;
  profile.recovery_per_hour = 0.05;
  FleetFaultInjector injector(&cluster, profile, 13);
  injector.BeginHour(600);
  const auto& c = injector.counters();
  EXPECT_GT(c.degradations, 0u);
  EXPECT_GT(c.recoveries, 0u);  // Fast recovery: most incidents fully heal.
  EXPECT_EQ(injector.machines_down_now(), 0u);  // Degradation never downs.
  for (size_t i = 0; i < cluster.size(); ++i) {
    MachineHealth h = injector.Health(i);
    EXPECT_TRUE(h.up);
    EXPECT_GT(h.speed, 0.0);
    EXPECT_LE(h.speed, 1.0);
  }
}

TEST(FleetFaultInjectorTest, PermanentLossIsForever) {
  Cluster cluster = MakeCluster(200);
  FleetFaultProfile profile;
  profile.permanent_loss_rate_per_hour = 0.001;
  FleetFaultInjector injector(&cluster, profile, 17);

  injector.BeginHour(300);
  std::set<size_t> lost_at_300;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (!injector.Health(i).up) lost_at_300.insert(i);
  }
  EXPECT_GT(lost_at_300.size(), 0u);
  EXPECT_EQ(lost_at_300.size(), injector.counters().permanent_losses);

  injector.BeginHour(600);
  for (size_t i : lost_at_300) {
    EXPECT_FALSE(injector.Health(i).up) << "lost machine " << i << " returned";
  }
  EXPECT_GE(injector.counters().permanent_losses, lost_at_300.size());
}

TEST(FleetFaultInjectorTest, AdvanceIsBatchInvariantAndIdempotent) {
  Cluster cluster_a = MakeCluster(150);
  Cluster cluster_b = MakeCluster(150);
  FleetFaultProfile profile = FleetFaultProfile::CrashStorm();
  profile.degrade_rate_per_hour = 0.01;
  profile.permanent_loss_rate_per_hour = 0.0005;
  FleetFaultInjector a(&cluster_a, profile, 23);
  FleetFaultInjector b(&cluster_b, profile, 23);

  a.BeginHour(199);                                      // One batch call.
  for (HourIndex h = 0; h <= 199; ++h) b.BeginHour(h);   // Hour by hour.
  EXPECT_EQ(a.SerializeState(), b.SerializeState());

  a.BeginHour(50);  // In the past: must be a no-op.
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
}

TEST(FleetFaultInjectorTest, SerializeRestoreRoundTrip) {
  Cluster cluster_a = MakeCluster(120);
  Cluster cluster_b = MakeCluster(120);
  FleetFaultProfile profile = FleetFaultProfile::CrashStorm();
  profile.rack_outage_rate_per_hour = 0.01;
  FleetFaultInjector a(&cluster_a, profile, 29);
  a.BeginHour(100);

  FleetFaultInjector b(&cluster_b, profile, 29);
  ASSERT_TRUE(b.RestoreState(a.SerializeState()).ok());
  EXPECT_EQ(a.SerializeState(), b.SerializeState());

  // The restored injector continues bit-identically.
  a.BeginHour(250);
  b.BeginHour(250);
  EXPECT_EQ(a.SerializeState(), b.SerializeState());
  EXPECT_FALSE(b.RestoreState("garbage").ok());
}

struct EngineFixture {
  PerfModel model = PerfModel::CreateDefault();
  WorkloadModel workload = WorkloadModel::CreateDefault();
};

// Each hour the batch-seeded injector runs one pass per fault kind, with
// its streams seeded eight at a time. It must decide as the reference's one
// loop with a fresh stream per decision does: the same health every hour,
// the same counters, the same checkpoint bytes, on fleets shorter than one
// group of eight, just past one and of many groups.
TEST(FleetFaultInjectorTest, BatchedPassesMatchOneStreamPerDecision) {
  FleetFaultProfile loss;
  loss.permanent_loss_rate_per_hour = 0.01;
  FleetFaultProfile every_kind;
  every_kind.crash_rate_per_hour = 0.02;
  every_kind.rack_outage_rate_per_hour = 0.02;
  every_kind.degrade_rate_per_hour = 0.02;
  every_kind.permanent_loss_rate_per_hour = 0.005;
  const std::vector<std::pair<std::string, FleetFaultProfile>> profiles = {
      {"CrashStorm", FleetFaultProfile::CrashStorm()},
      {"RackOutages", FleetFaultProfile::RackOutages()},
      {"SlowDegradation", FleetFaultProfile::SlowDegradation()},
      {"permanent loss", loss},
      {"every kind", every_kind}};
  for (int machines : {1, 7, 9, 250}) {
    Cluster cluster = MakeCluster(machines);
    ASSERT_EQ(cluster.size(), static_cast<size_t>(machines));
    for (const auto& [name, profile] : profiles) {
      SCOPED_TRACE(name + ", " + std::to_string(machines) + " machines");
      FleetFaultInjector injector(&cluster, profile, 13);
      ReferenceFleetFaultInjector reference(&cluster, profile, 13);
      // Hour by hour, and in calls that advance many hours at once.
      for (HourIndex hour : {0, 1, 2, 3, 5, 8, 13, 60, 61, 200, 201, 202, 400}) {
        injector.BeginHour(hour);
        reference.BeginHour(hour);
        for (size_t i = 0; i < cluster.size(); ++i) {
          ASSERT_EQ(injector.Health(i).up, reference.Health(i).up) << "hour " << hour;
          ASSERT_EQ(injector.Health(i).speed, reference.Health(i).speed) << "hour " << hour;
        }
        ASSERT_EQ(injector.SerializeState(), reference.SerializeState()) << "hour " << hour;
      }
      const auto& c = reference.counters();
      EXPECT_EQ(injector.counters().machine_down_hours, c.machine_down_hours);
      if (machines == 250) {
        EXPECT_GT(c.crashes + c.rack_outages + c.degradations + c.permanent_losses, 0u);
      }
    }
  }
}

TEST(FleetFaultInjectorTest, FluidEngineDropsTelemetryForDownMachines) {
  EngineFixture fx;
  Cluster cluster = MakeCluster(200);
  FleetFaultProfile profile;
  profile.crash_rate_per_hour = 0.02;
  profile.mean_repair_hours = 10.0;
  FleetFaultInjector injector(&cluster, profile, 31);
  FluidEngine engine(&fx.model, &cluster, &fx.workload, FluidEngine::Options());
  engine.AttachFleetFaults(&injector);
  telemetry::TelemetryStore store;
  ASSERT_TRUE(engine.Run(0, 200, &store).ok());
  EXPECT_LT(store.size(), 200u * 200u);
  EXPECT_GT(store.size(), 200u * 200u / 2u);
}

TEST(FleetFaultInjectorTest, EmptyProfileLeavesFluidEngineBitIdentical) {
  EngineFixture fx;
  Cluster plain_cluster = MakeCluster(150);
  FluidEngine plain(&fx.model, &plain_cluster, &fx.workload, FluidEngine::Options());
  telemetry::TelemetryStore plain_store;
  ASSERT_TRUE(plain.Run(0, 72, &plain_store).ok());

  Cluster chaos_cluster = MakeCluster(150);
  FleetFaultInjector injector(&chaos_cluster, FleetFaultProfile::None(), 37);
  FluidEngine attached(&fx.model, &chaos_cluster, &fx.workload, FluidEngine::Options());
  attached.AttachFleetFaults(&injector);
  telemetry::TelemetryStore attached_store;
  ASSERT_TRUE(attached.Run(0, 72, &attached_store).ok());

  EXPECT_EQ(plain_store.ToCsv(), attached_store.ToCsv());
}

TEST(FleetFaultInjectorTest, DegradationInflatesFluidEngineLatency) {
  EngineFixture fx;
  auto mean_latency = [&](FleetFaultInjector* injector) {
    Cluster cluster = MakeCluster(200);
    FluidEngine engine(&fx.model, &cluster, &fx.workload, FluidEngine::Options());
    if (injector != nullptr) engine.AttachFleetFaults(injector);
    telemetry::TelemetryStore store;
    EXPECT_TRUE(engine.Run(0, 120, &store).ok());
    double sum = 0.0;
    size_t active = 0;
    for (const auto& r : store.records()) {
      if (r.tasks_finished > 0) {
        sum += r.avg_task_latency_s;
        ++active;
      }
    }
    return sum / static_cast<double>(active);
  };

  Cluster chaos_cluster = MakeCluster(200);
  FleetFaultProfile profile;
  profile.degrade_rate_per_hour = 0.02;
  profile.degrade_severity = 0.5;
  profile.recovery_per_hour = 0.005;
  FleetFaultInjector injector(&chaos_cluster, profile, 41);
  EXPECT_GT(mean_latency(&injector), mean_latency(nullptr) * 1.05);
}

TEST(FleetFaultInjectorTest, JobSimulatorHonorsFleetFaults) {
  EngineFixture fx;
  Cluster cluster = MakeCluster(150);
  JobSimulator::Options options;
  options.seed = 43;

  JobSimulator plain(&fx.model, &cluster, &fx.workload, options);
  auto baseline = plain.Run(BenchmarkJobTemplates(), 2.0 * kSecondsPerHour);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Empty profile: bit-identical job stream.
  FleetFaultInjector none(&cluster, FleetFaultProfile::None(), 43);
  JobSimulator with_none(&fx.model, &cluster, &fx.workload, options);
  with_none.AttachFleetFaults(&none);
  auto same = with_none.Run(BenchmarkJobTemplates(), 2.0 * kSecondsPerHour);
  ASSERT_TRUE(same.ok()) << same.status();
  ASSERT_EQ(same->jobs.size(), baseline->jobs.size());
  for (size_t i = 0; i < baseline->jobs.size(); ++i) {
    EXPECT_EQ(baseline->jobs[i].runtime_s, same->jobs[i].runtime_s) << "job " << i;
  }

  // A degraded fleet runs the same jobs slower on average.
  FleetFaultProfile profile;
  profile.degrade_rate_per_hour = 0.05;
  profile.degrade_severity = 0.5;
  profile.recovery_per_hour = 0.001;
  FleetFaultInjector degraded(&cluster, profile, 43);
  degraded.BeginHour(200);  // Let degradation reach steady state.
  JobSimulator with_faults(&fx.model, &cluster, &fx.workload, options);
  with_faults.AttachFleetFaults(&degraded);
  auto slow = with_faults.Run(BenchmarkJobTemplates(), 2.0 * kSecondsPerHour);
  ASSERT_TRUE(slow.ok()) << slow.status();

  auto mean_runtime = [](const JobSimulator::Result& r) {
    double sum = 0.0;
    for (const auto& j : r.jobs) sum += j.runtime_s;
    return sum / static_cast<double>(r.jobs.size());
  };
  ASSERT_FALSE(baseline->jobs.empty());
  ASSERT_FALSE(slow->jobs.empty());
  EXPECT_GT(mean_runtime(*slow), mean_runtime(*baseline));
}

}  // namespace
}  // namespace kea::sim

namespace kea::apps {
namespace {

constexpr uint64_t kChaosSeed = 77;

std::unique_ptr<KeaSession> MakeSelfHealingSession(int machines, uint64_t seed) {
  KeaSession::Config config;
  config.machines = machines;
  config.seed = seed;
  auto session = std::move(KeaSession::Create(config)).value();
  KeaSession::SelfHealingConfig healing;
  healing.health.probation_rounds = 1;
  healing.health.validation_tolerance = 0.3;
  EXPECT_TRUE(session->EnableSelfHealing(healing).ok());
  return session;
}

KeaSession::GuardedRoundOptions ScenarioRoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = sim::kHoursPerWeek;
  options.rollout.observe_hours_per_wave = 12;
  options.rollout.baseline_hours = 24;
  return options;
}

std::vector<int> ConfigSnapshot(const KeaSession& session) {
  std::vector<int> config;
  config.reserve(session.cluster().size());
  for (const sim::Machine& m : session.cluster().machines()) {
    config.push_back(m.max_containers);
  }
  return config;
}

/// Runs one guarded round and asserts the no-bad-deploy invariant: the fleet
/// configuration changes only through a rollout whose every wave passed its
/// guardrails. Safe-mode and rolled-back rounds leave it bit-identical.
void RunCheckedRound(KeaSession* session,
                     const KeaSession::GuardedRoundOptions& options,
                     KeaSession::GuardedRound* out) {
  std::vector<int> before = ConfigSnapshot(*session);
  auto round = session->RunGuardedTuningRound(options);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  bool changed = ConfigSnapshot(*session) != before;

  if (round->safe_mode) {
    EXPECT_FALSE(changed) << "safe-mode round changed the fleet config";
    EXPECT_EQ(round->rollout.outcome, core::GuardrailedRollout::Outcome::kNoChange);
    EXPECT_TRUE(round->rollout.waves.empty());
  }
  if (round->rollout.outcome == core::GuardrailedRollout::Outcome::kConverged) {
    for (const auto& wave : round->rollout.waves) {
      EXPECT_TRUE(wave.passed) << "converged rollout with a failed wave";
    }
  } else {
    EXPECT_FALSE(changed)
        << "non-converged round left a config change behind";
  }
  *out = *std::move(round);
}

/// One self-healing scenario: clean week + known-good round, chaos onset,
/// breaker trip within the detection window, safe-mode holding pattern,
/// refit + validation gate, re-arm, and a resumed full tuning round. With
/// `recover`, the fleet heals after the trip (drift-then-recover).
void DriveScenario(KeaSession* session, const sim::FleetFaultProfile& profile,
                   bool recover) {
  ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());
  KeaSession::GuardedRound round;
  RunCheckedRound(session, ScenarioRoundOptions(), &round);
  ASSERT_FALSE(round.safe_mode);
  EXPECT_EQ(round.health_state, "HEALTHY");
  ASSERT_EQ(session->model_health()->state(), core::ModelHealth::State::kHealthy);

  // Chaos onset. The breaker must trip within 96 hours.
  ASSERT_TRUE(session->EnableFleetChaos({profile, kChaosSeed}).ok());
  sim::HourIndex onset = session->now();
  for (int i = 0; i < 4 && !session->model_health()->in_safe_mode(); ++i) {
    ASSERT_TRUE(session->Simulate(24).ok());
  }
  ASSERT_TRUE(session->model_health()->in_safe_mode())
      << "breaker never tripped within 96h of chaos onset";
  EXPECT_GE(session->model_health()->trips(), 1u);
  EXPECT_GE(session->model_health()->tripped_at(), onset);
  EXPECT_LE(session->model_health()->tripped_at(), onset + 96);
  EXPECT_TRUE(session->drift_detector()->drifting());

  if (recover) {
    KeaSession::FleetChaosConfig healed;  // None() profile.
    healed.seed = kChaosSeed;
    ASSERT_TRUE(session->EnableFleetChaos(healed).ok());
  }

  // While the breaker is open, direct deployment entry points are refused.
  auto refused =
      session->RunYarnTuningRound(YarnConfigTuner::Options(), sim::kHoursPerWeek, 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // Safe-mode rounds hold the config and drive the refit cycle until the
  // held-out validation gate passes and a full round runs again.
  bool resumed = false;
  for (int i = 0; i < 12 && !resumed; ++i) {
    ASSERT_TRUE(session->Simulate(24).ok());
    RunCheckedRound(session, ScenarioRoundOptions(), &round);
    if (!round.safe_mode) resumed = true;
  }
  ASSERT_TRUE(resumed) << "refit never passed the validation gate; state="
                       << core::ModelHealth::StateName(
                              session->model_health()->state());
  EXPECT_GE(session->model_health()->refits(), 1u);
  EXPECT_GT(session->model_health()->safe_mode_rounds(), 0u);

  // The resumed round ran the full pipeline with a definite outcome, and the
  // breaker is out of safe mode (RE-ARMED probation or back to HEALTHY).
  EXPECT_FALSE(round.safe_mode);
  EXPECT_TRUE(session->model_health()->deployments_allowed());
  if (recover) {
    // On a healed fleet the resumed round must not trip guardrails.
    EXPECT_NE(round.rollout.outcome,
              core::GuardrailedRollout::Outcome::kRolledBack);
  }

  // Nothing unsound ever reached the store, chaos or not.
  for (const auto& r : session->store().records()) {
    ASSERT_TRUE(std::isfinite(r.cpu_utilization));
    ASSERT_TRUE(std::isfinite(r.avg_task_latency_s));
    ASSERT_GE(r.tasks_finished, 0.0);
    ASSERT_LE(r.cpu_utilization, 1.0);
  }
}

/// Aggressive profiles so the scenarios are decisive within a short window;
/// the presets on FleetFaultProfile are milder steady-state environments.
sim::FleetFaultProfile TestCrashStorm() {
  sim::FleetFaultProfile profile;
  profile.crash_rate_per_hour = 0.02;
  profile.mean_repair_hours = 8.0;
  return profile;
}

sim::FleetFaultProfile TestRackOutages() {
  // ~0.8 of the 8 racks dark at any moment (0.01/rack/h x 12h x 8 racks): a
  // 10-13% correlated machine drop whenever a rack is out — far past the
  // drift detector's 5% significance floor — while leaving every machine
  // group enough surviving telemetry for the refit to be well-posed. (A much
  // hotter profile blacks out most of the fleet and the refit's linear solve
  // goes singular; the breaker then correctly refuses to re-arm, forever.)
  sim::FleetFaultProfile profile;
  profile.rack_outage_rate_per_hour = 0.01;
  profile.mean_rack_outage_hours = 12.0;
  return profile;
}

sim::FleetFaultProfile TestSlowDegradation() {
  sim::FleetFaultProfile profile;
  profile.degrade_rate_per_hour = 0.03;
  profile.degrade_severity = 0.5;
  profile.recovery_per_hour = 0.005;
  return profile;
}

TEST(FleetChaosSweepTest, CrashStormTripsAndHeals) {
  auto session = MakeSelfHealingSession(300, 21);
  DriveScenario(session.get(), TestCrashStorm(), /*recover=*/false);
}

TEST(FleetChaosSweepTest, RackOutagesTripAndHeal) {
  auto session = MakeSelfHealingSession(300, 22);
  DriveScenario(session.get(), TestRackOutages(), /*recover=*/false);
}

TEST(FleetChaosSweepTest, SlowDegradationTripsAndHeals) {
  auto session = MakeSelfHealingSession(300, 23);
  DriveScenario(session.get(), TestSlowDegradation(), /*recover=*/false);
}

TEST(FleetChaosSweepTest, DriftThenRecoverReturnsToHealthy) {
  auto session = MakeSelfHealingSession(300, 24);
  DriveScenario(session.get(), TestSlowDegradation(), /*recover=*/true);

  // After recovery + probation the loop converges all the way back: run a
  // couple more clean rounds and require the breaker to reach HEALTHY.
  KeaSession::GuardedRound round;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(session->Simulate(24).ok());
    RunCheckedRound(session.get(), ScenarioRoundOptions(), &round);
    ASSERT_FALSE(round.safe_mode);
  }
  EXPECT_EQ(session->model_health()->state(), core::ModelHealth::State::kHealthy);
  EXPECT_EQ(round.health_state, "HEALTHY");
}

TEST(FleetChaosSweepTest, ScenarioIsDeterministic) {
  auto run = [](uint64_t seed) {
    auto session = MakeSelfHealingSession(250, seed);
    DriveScenario(session.get(), TestCrashStorm(), /*recover=*/false);
    return session;
  };
  auto a = run(5);
  auto b = run(5);
  EXPECT_EQ(a->store().ToCsv(), b->store().ToCsv());
  EXPECT_EQ(a->model_health()->trips(), b->model_health()->trips());
  EXPECT_EQ(a->model_health()->tripped_at(), b->model_health()->tripped_at());
  EXPECT_EQ(a->model_health()->safe_mode_rounds(),
            b->model_health()->safe_mode_rounds());
  EXPECT_EQ(a->drift_detector()->SerializeState(),
            b->drift_detector()->SerializeState());
  EXPECT_EQ(a->fleet_faults()->SerializeState(),
            b->fleet_faults()->SerializeState());
}

TEST(FleetChaosSweepTest, ZeroFaultChaosAndHealingAreBitIdenticalToPlainPath) {
  // Same seed, same world: one plain session, one with the whole robustness
  // stack enabled but inert (empty fault profiles, clean telemetry). Every
  // layer must be a bit-identical pass-through — including across What-if
  // thread counts (the PR 1 contract).
  KeaSession::Config config;
  config.machines = 300;
  config.seed = 9;
  auto plain = std::move(KeaSession::Create(config)).value();
  auto hardened = std::move(KeaSession::Create(config)).value();

  KeaSession::FleetChaosConfig chaos;  // None() profile.
  ASSERT_TRUE(chaos.profile.empty());
  ASSERT_TRUE(hardened->EnableFleetChaos(chaos).ok());
  ASSERT_TRUE(hardened->EnableSelfHealing(KeaSession::SelfHealingConfig()).ok());
  KeaSession::IngestionConfig ingestion;  // FaultProfile::None() by default.
  ASSERT_TRUE(hardened->EnableIngestionPipeline(ingestion).ok());

  ASSERT_TRUE(plain->Simulate(sim::kHoursPerWeek).ok());
  ASSERT_TRUE(hardened->Simulate(sim::kHoursPerWeek).ok());
  EXPECT_EQ(plain->store().ToCsv(), hardened->store().ToCsv());

  auto plain_options = ScenarioRoundOptions();
  plain_options.tuner.whatif.num_threads = 1;
  auto hardened_options = ScenarioRoundOptions();
  hardened_options.tuner.whatif.num_threads = 3;

  auto pr = plain->RunGuardedTuningRound(plain_options);
  ASSERT_TRUE(pr.ok()) << pr.status().ToString();
  auto hr = hardened->RunGuardedTuningRound(hardened_options);
  ASSERT_TRUE(hr.ok()) << hr.status().ToString();

  // Clean telemetry: the breaker never engaged and the round is untouched.
  EXPECT_FALSE(hr->safe_mode);
  EXPECT_EQ(hr->drift_alarms, 0u);
  EXPECT_EQ(hardened->model_health()->trips(), 0u);
  EXPECT_EQ(hardened->model_health()->state(), core::ModelHealth::State::kHealthy);

  EXPECT_EQ(pr->rollout.outcome, hr->rollout.outcome);
  const auto& pa = pr->plan;
  const auto& pb = hr->plan;
  EXPECT_EQ(pa.predicted_capacity_gain, pb.predicted_capacity_gain);
  EXPECT_EQ(pa.predicted_latency_before_s, pb.predicted_latency_before_s);
  EXPECT_EQ(pa.predicted_latency_after_s, pb.predicted_latency_after_s);
  ASSERT_EQ(pa.recommendations.size(), pb.recommendations.size());
  for (size_t i = 0; i < pa.recommendations.size(); ++i) {
    EXPECT_EQ(pa.recommendations[i].group, pb.recommendations[i].group);
    EXPECT_EQ(pa.recommendations[i].recommended_max_containers,
              pb.recommendations[i].recommended_max_containers);
  }

  // The worlds stay in lockstep after the rounds too.
  ASSERT_TRUE(plain->Simulate(48).ok());
  ASSERT_TRUE(hardened->Simulate(48).ok());
  EXPECT_EQ(plain->store().ToCsv(), hardened->store().ToCsv());
  EXPECT_EQ(ConfigSnapshot(*plain), ConfigSnapshot(*hardened));
}

TEST(FleetChaosSweepTest, HealingLoopSurvivesCheckpointResume) {
  // Two durable twins driven into a tripped breaker; one is resumed from its
  // checkpoint. The resumed session must carry the injector clocks, drift
  // detector and breaker across the restart and heal in lockstep with the
  // uninterrupted twin.
  auto make = [](const std::string& dir) {
    KeaSession::Config config;
    config.machines = 150;
    config.seed = 31;
    auto session = std::move(KeaSession::Create(config)).value();
    KeaSession::SelfHealingConfig healing;
    healing.health.probation_rounds = 1;
    healing.health.validation_tolerance = 0.3;
    EXPECT_TRUE(session->EnableSelfHealing(healing).ok());
    EXPECT_TRUE(session->EnableDurability(dir).ok());
    return session;
  };
  std::string dir_a = ::testing::TempDir() + "/fleet_chaos_resume_a";
  std::string dir_b = ::testing::TempDir() + "/fleet_chaos_resume_b";
  // An earlier run's ledger would make EnableDurability refuse the directory.
  for (const std::string& dir : {dir_a, dir_b}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }

  auto drive_to_trip = [](KeaSession* session) {
    // One week primes the seasonal baselines, and 72 more clean hours let the
    // Page-Hinkley warmup finish on clean week-on-week differences. Enabling
    // chaos at the same hour differencing starts would fold the faulted
    // regime into the warmup statistics and nothing would ever look shifted.
    ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());
    ASSERT_TRUE(session->Simulate(72).ok());
    ASSERT_TRUE(session->EnableFleetChaos({TestCrashStorm(), kChaosSeed}).ok());
    for (int i = 0; i < 4 && !session->model_health()->in_safe_mode(); ++i) {
      ASSERT_TRUE(session->Simulate(24).ok());
    }
    ASSERT_TRUE(session->model_health()->in_safe_mode());
  };

  auto uninterrupted = make(dir_a);
  drive_to_trip(uninterrupted.get());

  {
    auto crashed = make(dir_b);
    drive_to_trip(crashed.get());
    ASSERT_TRUE(crashed->Checkpoint().ok());
  }  // Session destroyed: the "crash".

  auto resumed_or = KeaSession::Resume(dir_b);
  ASSERT_TRUE(resumed_or.ok()) << resumed_or.status().ToString();
  auto resumed = std::move(resumed_or).value();

  // The robustness state came back bit-exact.
  ASSERT_NE(resumed->fleet_faults(), nullptr);
  ASSERT_NE(resumed->drift_detector(), nullptr);
  ASSERT_NE(resumed->model_health(), nullptr);
  EXPECT_EQ(resumed->fleet_faults()->SerializeState(),
            uninterrupted->fleet_faults()->SerializeState());
  EXPECT_EQ(resumed->drift_detector()->SerializeState(),
            uninterrupted->drift_detector()->SerializeState());
  EXPECT_EQ(resumed->model_health()->SerializeState(),
            uninterrupted->model_health()->SerializeState());

  // Both heal in lockstep: same rounds, same telemetry, same breaker path.
  KeaSession::GuardedRound ra, rb;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(uninterrupted->Simulate(24).ok());
    ASSERT_TRUE(resumed->Simulate(24).ok());
    RunCheckedRound(uninterrupted.get(), ScenarioRoundOptions(), &ra);
    RunCheckedRound(resumed.get(), ScenarioRoundOptions(), &rb);
    ASSERT_EQ(ra.safe_mode, rb.safe_mode) << "round " << i;
    ASSERT_EQ(ra.health_state, rb.health_state) << "round " << i;
    ASSERT_EQ(ra.rollout.outcome, rb.rollout.outcome) << "round " << i;
  }
  EXPECT_EQ(uninterrupted->store().ToCsv(), resumed->store().ToCsv());
  EXPECT_EQ(uninterrupted->model_health()->SerializeState(),
            resumed->model_health()->SerializeState());
}

}  // namespace
}  // namespace kea::apps
