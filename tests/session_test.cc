#include "apps/session.h"

#include <gtest/gtest.h>

namespace kea::apps {
namespace {

std::unique_ptr<KeaSession> MakeSession(int machines = 500) {
  KeaSession::Config config;
  config.machines = machines;
  auto session = KeaSession::Create(config);
  return std::move(session).value();
}

TEST(KeaSessionTest, CreateValidatesConfig) {
  KeaSession::Config bad;
  bad.machines = 600;
  bad.workload.base_demand_fraction = -1.0;
  EXPECT_FALSE(KeaSession::Create(bad).ok());
}

TEST(KeaSessionTest, SimulateAdvancesClockAndCollectsTelemetry) {
  auto session = MakeSession(200);
  EXPECT_EQ(session->now(), 0);
  ASSERT_TRUE(session->Simulate(48).ok());
  EXPECT_EQ(session->now(), 48);
  EXPECT_EQ(session->store().size(), 200u * 48u);
  ASSERT_TRUE(session->Simulate(24).ok());
  EXPECT_EQ(session->now(), 72);
}

TEST(KeaSessionTest, TuningBeforeTelemetryFails) {
  auto session = MakeSession(200);
  auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(), 168, 1);
  EXPECT_EQ(round.status().code(), StatusCode::kFailedPrecondition);
}

TEST(KeaSessionTest, FullRoundLifecycle) {
  auto session = MakeSession(600);
  ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());

  auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                           sim::kHoursPerWeek, 1);
  ASSERT_TRUE(round.ok()) << round.status();
  EXPECT_FALSE(round->applied.empty());
  EXPECT_GT(round->plan.predicted_capacity_gain, 0.0);

  // Validation requires post-deployment telemetry.
  EXPECT_EQ(session->ValidateModels(core::ModelValidator::Options())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());

  auto validation = session->ValidateModels(core::ModelValidator::Options());
  ASSERT_TRUE(validation.ok()) << validation.status();
  EXPECT_TRUE(validation->models_valid);

  auto value = session->EstimateCapacityValue(CapacityConverter::Options());
  ASSERT_TRUE(value.ok());
  EXPECT_GT(value->capacity_gain, 0.0);
}

TEST(KeaSessionTest, RollbackRestoresConfiguration) {
  auto session = MakeSession(400);
  ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());

  std::vector<int> before;
  for (const sim::Machine& m : session->cluster().machines()) {
    before.push_back(m.max_containers);
  }
  auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                           sim::kHoursPerWeek, 1);
  ASSERT_TRUE(round.ok());
  ASSERT_FALSE(round->applied.empty());

  ASSERT_TRUE(session->RollbackLastDeployment().ok());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(session->cluster().machines()[i].max_containers, before[i]) << i;
  }
}

std::vector<int> MaxContainers(const KeaSession& session) {
  std::vector<int> config;
  for (const sim::Machine& m : session.cluster().machines()) {
    config.push_back(m.max_containers);
  }
  return config;
}

/// An unguarded round, 48 more hours, then a guarded round.
std::unique_ptr<KeaSession> UnguardedThenGuarded(
    const KeaSession::GuardedRoundOptions& guarded,
    core::GuardrailedRollout::Outcome* outcome) {
  KeaSession::Config config;
  config.machines = 400;
  config.seed = 5;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());
  auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                           sim::kHoursPerWeek, 1);
  EXPECT_TRUE(round.ok()) << round.status();
  EXPECT_TRUE(round.ok() && !round->applied.empty());
  EXPECT_TRUE(session->Simulate(48).ok());
  auto second = session->RunGuardedTuningRound(guarded);
  EXPECT_TRUE(second.ok()) << second.status();
  if (second.ok()) *outcome = second->rollout.outcome;
  return session;
}

TEST(KeaSessionTest, ConvergedGuardedRoundSupersedesThePendingBatch) {
  // The guarded round set the unguarded batch's groups anew. Rolling that
  // older batch back would move them again, by two steps at once, so the
  // rollback is refused and the fleet stays as the guarded round left it.
  KeaSession::GuardedRoundOptions guarded;
  guarded.lookback_hours = sim::kHoursPerWeek;
  guarded.rollout.wave_fractions = {0.5, 1.0};
  core::GuardrailedRollout::Outcome outcome{};
  auto session = UnguardedThenGuarded(guarded, &outcome);
  ASSERT_EQ(outcome, core::GuardrailedRollout::Outcome::kConverged);
  EXPECT_FALSE(session->deployment().has_pending_batch());
  const std::vector<int> converged = MaxContainers(*session);
  EXPECT_EQ(session->RollbackLastDeployment().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(MaxContainers(*session), converged);
}

TEST(KeaSessionTest, RolledBackGuardedRoundKeepsThePendingBatch) {
  // A guarded round that tripped restored the fleet it found, so the
  // unguarded batch before it can still be rolled back.
  KeaSession::GuardedRoundOptions guarded;
  guarded.lookback_hours = sim::kHoursPerWeek;
  guarded.rollout.wave_fractions = {0.5, 1.0};
  guarded.rollout.guardrails.max_latency_ratio = 0.5;  // Latency must halve.
  core::GuardrailedRollout::Outcome outcome{};
  auto session = UnguardedThenGuarded(guarded, &outcome);
  ASSERT_EQ(outcome, core::GuardrailedRollout::Outcome::kRolledBack);
  ASSERT_TRUE(session->deployment().has_pending_batch());
  ASSERT_TRUE(session->RollbackLastDeployment().ok());
  for (const core::AppliedChange& change : session->deployment().history()) {
    for (int id : session->cluster().groups().at(change.group)) {
      EXPECT_EQ(session->cluster().machines()[static_cast<size_t>(id)].max_containers,
                change.old_max_containers);
    }
  }
}

TEST(KeaSessionTest, ValuationWithoutRoundFails) {
  auto session = MakeSession(200);
  ASSERT_TRUE(session->Simulate(24).ok());
  EXPECT_EQ(session->EstimateCapacityValue(CapacityConverter::Options())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(KeaSessionTest, LookbackValidation) {
  auto session = MakeSession(200);
  ASSERT_TRUE(session->Simulate(48).ok());
  EXPECT_EQ(
      session->RunYarnTuningRound(YarnConfigTuner::Options(), 0, 1).status().code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace kea::apps
