#include "core/deployment.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"
#include "core/deployment_ledger.h"
#include "obs/metrics.h"

namespace kea::core {
namespace {

sim::Cluster MakeCluster(int machines = 400) {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = machines;
  return std::move(sim::Cluster::Build(sim::SkuCatalog::Default(), spec)).value();
}

int GroupMax(const sim::Cluster& cluster, sim::MachineGroupKey key) {
  int id = cluster.groups().at(key).front();
  return cluster.machines()[static_cast<size_t>(id)].max_containers;
}

std::vector<int> MaxContainers(const sim::Cluster& cluster) {
  std::vector<int> config;
  for (const sim::Machine& m : cluster.machines()) config.push_back(m.max_containers);
  return config;
}

TEST(DeploymentTest, AppliesWithinStep) {
  sim::Cluster cluster = MakeCluster();
  sim::MachineGroupKey key{0, 0};
  int current = GroupMax(cluster, key);

  DeploymentModule deploy;  // max_step = 1.
  std::vector<GroupRecommendation> recs = {{key, current, current + 1}};
  auto applied = deploy.ApplyConservatively(recs, &cluster);
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied->size(), 1u);
  EXPECT_FALSE((*applied)[0].clamped);
  EXPECT_EQ(GroupMax(cluster, key), current + 1);
}

TEST(DeploymentTest, ClampsLargeRecommendations) {
  sim::Cluster cluster = MakeCluster();
  sim::MachineGroupKey key{0, 5};
  int current = GroupMax(cluster, key);

  DeploymentModule deploy;  // max_step = 1.
  std::vector<GroupRecommendation> recs = {{key, current, current + 10}};
  auto applied = deploy.ApplyConservatively(recs, &cluster);
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied->size(), 1u);
  EXPECT_TRUE((*applied)[0].clamped);
  EXPECT_EQ(GroupMax(cluster, key), current + 1);
}

TEST(DeploymentTest, ClampsDecreasesToo) {
  sim::Cluster cluster = MakeCluster();
  sim::MachineGroupKey key{0, 0};
  int current = GroupMax(cluster, key);

  DeploymentModule::Options options;
  options.max_step = 2;
  DeploymentModule deploy(options);
  std::vector<GroupRecommendation> recs = {{key, current, current - 6}};
  auto applied = deploy.ApplyConservatively(recs, &cluster);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(GroupMax(cluster, key), current - 2);
}

TEST(DeploymentTest, SkipsNoopRecommendations) {
  sim::Cluster cluster = MakeCluster();
  sim::MachineGroupKey key{0, 2};
  int current = GroupMax(cluster, key);

  DeploymentModule deploy;
  std::vector<GroupRecommendation> recs = {{key, current, current}};
  auto applied = deploy.ApplyConservatively(recs, &cluster);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->empty());
}

TEST(DeploymentTest, RespectsMinContainers) {
  sim::Cluster cluster = MakeCluster();
  sim::MachineGroupKey key{0, 0};
  // Force the group low first.
  ASSERT_TRUE(cluster.SetGroupMaxContainers(key, 1).ok());

  DeploymentModule deploy;
  std::vector<GroupRecommendation> recs = {{key, 1, 0}};
  auto applied = deploy.ApplyConservatively(recs, &cluster);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->empty());  // Clamped to min 1 == current, no-op.
  EXPECT_EQ(GroupMax(cluster, key), 1);
}

TEST(DeploymentTest, HistoryAccumulates) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey a{0, 0}, b{0, 5};
  int ca = GroupMax(cluster, a), cb = GroupMax(cluster, b);

  ASSERT_TRUE(deploy.ApplyConservatively({{a, ca, ca - 1}}, &cluster).ok());
  ASSERT_TRUE(deploy.ApplyConservatively({{b, cb, cb + 1}}, &cluster).ok());
  EXPECT_EQ(deploy.history().size(), 2u);
}

TEST(DeploymentTest, RollbackRestoresLastBatch) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey key{1, 5};
  int current = GroupMax(cluster, key);

  ASSERT_TRUE(deploy.ApplyConservatively({{key, current, current + 1}}, &cluster).ok());
  EXPECT_EQ(GroupMax(cluster, key), current + 1);
  ASSERT_TRUE(deploy.RollbackLast(&cluster).ok());
  EXPECT_EQ(GroupMax(cluster, key), current);
  // Second rollback has nothing to undo.
  EXPECT_EQ(deploy.RollbackLast(&cluster).code(), StatusCode::kFailedPrecondition);
}

TEST(DeploymentTest, RollbackBeforeAnyApplyIsIdempotentFailedPrecondition) {
  sim::Cluster cluster = MakeCluster();
  auto snapshot = [&cluster] {
    std::vector<int> config;
    for (const auto& m : cluster.machines()) config.push_back(m.max_containers);
    return config;
  };
  DeploymentModule deploy;
  EXPECT_FALSE(deploy.has_pending_batch());
  auto before = snapshot();
  // Repeated rollbacks keep failing the same way and never mutate the fleet.
  EXPECT_EQ(deploy.RollbackLast(&cluster).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(deploy.RollbackLast(&cluster).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(snapshot(), before);
}

TEST(DeploymentTest, RollbackOfEmptyAppliedBatchIsOkNoOp) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey key{0, 0};
  int current = GroupMax(cluster, key);

  // Apply ran but every recommendation clamped to a no-op: the fleet is
  // already in the pre-apply state, so rollback succeeds with nothing to do.
  auto applied = deploy.ApplyConservatively({{key, current, current}}, &cluster);
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(applied->empty());
  EXPECT_TRUE(deploy.has_pending_batch());
  EXPECT_TRUE(deploy.RollbackLast(&cluster).ok());
  EXPECT_FALSE(deploy.has_pending_batch());
  // ... but a second rollback is back to the nothing-pending error.
  EXPECT_EQ(deploy.RollbackLast(&cluster).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(GroupMax(cluster, key), current);
}

TEST(DeploymentTest, RollbackRestoresMultiGroupBatchExactly) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey a{0, 0}, b{0, 5}, c{1, 2};
  int ca = GroupMax(cluster, a), cb = GroupMax(cluster, b), cc = GroupMax(cluster, c);

  ASSERT_TRUE(deploy
                  .ApplyConservatively({{a, ca, ca + 1}, {b, cb, cb - 1}, {c, cc, cc + 1}},
                                       &cluster)
                  .ok());
  EXPECT_TRUE(deploy.has_pending_batch());
  ASSERT_TRUE(deploy.RollbackLast(&cluster).ok());
  EXPECT_EQ(GroupMax(cluster, a), ca);
  EXPECT_EQ(GroupMax(cluster, b), cb);
  EXPECT_EQ(GroupMax(cluster, c), cc);
  EXPECT_FALSE(deploy.has_pending_batch());
  // History is an audit log: rollback does not erase it.
  EXPECT_EQ(deploy.history().size(), 3u);
}

TEST(DeploymentTest, EmptyHistoryCsvIsHeaderOnly) {
  DeploymentModule deploy;
  EXPECT_EQ(deploy.HistoryCsv(),
            "sc,sku,old_max_containers,new_max_containers,clamped\n");
}

TEST(DeploymentTest, HistoryCsvListsChangesInOrderAndSurvivesRollback) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey a{0, 0}, b{0, 5};
  int ca = GroupMax(cluster, a), cb = GroupMax(cluster, b);

  ASSERT_TRUE(deploy.ApplyConservatively({{a, ca, ca + 1}}, &cluster).ok());
  ASSERT_TRUE(deploy.ApplyConservatively({{b, cb, cb + 5}}, &cluster).ok());
  ASSERT_TRUE(deploy.RollbackLast(&cluster).ok());

  // History is an audit log: rollback restores the fleet but keeps the rows.
  auto table = ParseCsv(deploy.HistoryCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0][0], "0");
  EXPECT_EQ(table->rows[0][1], "0");
  EXPECT_EQ(table->rows[0][3], std::to_string(ca + 1));
  EXPECT_EQ(table->rows[0][4], "0");
  EXPECT_EQ(table->rows[1][1], "5");
  EXPECT_EQ(table->rows[1][3], std::to_string(cb + 1));  // Clamped to +1.
  EXPECT_EQ(table->rows[1][4], "1");
}

TEST(DeploymentTest, LegacyModuleEventsStillOpenAndListGroupRows) {
  // Ledgers written while the module journaled its own batches hold
  // "module/apply/<n>" and "module/rollback/<n>" events. They still open, and
  // the applied-change export still lists the batch's per-group rows.
  const std::string path = testing::TempDir() + "/deployment_legacy_ledger.kea";
  std::remove(path.c_str());
  const AppliedChange change{sim::MachineGroupKey{0, 0}, 7, 6, false};
  {
    auto ledger = std::move(DeploymentLedger::Open(path)).value();
    ASSERT_TRUE(ledger
                    ->Append(DeploymentLedger::EventType::kApply,
                             "module/apply/0", Encode(std::vector<AppliedChange>{change}))
                    .ok());
    ASSERT_TRUE(ledger
                    ->Append(DeploymentLedger::EventType::kModuleRollback,
                             "module/rollback/0", Encode(std::vector<AppliedChange>{change}))
                    .ok());
  }
  auto reopened = DeploymentLedger::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ASSERT_EQ((*reopened)->events().size(), 2u);
  EXPECT_EQ((*reopened)->events()[1].key, "module/rollback/0");

  auto table = ParseCsv((*reopened)->AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][table->ColumnIndex("key")], "module/apply/0");
  EXPECT_EQ(table->rows[0][table->ColumnIndex("kind")], "group");
  EXPECT_EQ(table->rows[0][table->ColumnIndex("sc")], "0");
  EXPECT_EQ(table->rows[0][table->ColumnIndex("machine_id")], "-1");
  EXPECT_EQ(table->rows[0][table->ColumnIndex("old_max_containers")], "7");
  EXPECT_EQ(table->rows[0][table->ColumnIndex("new_max_containers")], "6");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// JournaledStep: the one REPLAY / RE-DRIVE / FRESH primitive.
// ---------------------------------------------------------------------------

using EventType = DeploymentLedger::EventType;

std::unique_ptr<DeploymentLedger> OpenFreshLedger(const std::string& name) {
  const std::string path = testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return std::move(DeploymentLedger::Open(path)).value();
}

/// The durable.step_{replayed,redriven,fresh} counters.
std::vector<uint64_t> StepCounters() {
  obs::Registry& registry = obs::Registry::Get();
  return {registry.GetCounter("durable.step_replayed")->value(),
          registry.GetCounter("durable.step_redriven")->value(),
          registry.GetCounter("durable.step_fresh")->value()};
}

/// Counter movement since `before`, expected as {replayed, redriven, fresh};
/// nothing moves when metrics are compiled out.
void ExpectStepCountersMoved(const std::vector<uint64_t>& before,
                             std::vector<uint64_t> expected) {
  if (!obs::MetricsEnabled()) expected = {0, 0, 0};
  std::vector<uint64_t> after = StepCounters();
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], expected[i]) << "counter " << i;
  }
}

TEST(JournaledStepTest, NullContextOnlyBuildsThePayloadAndRunsTheEffect) {
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  const std::vector<uint64_t> before = StepCounters();
  int payloads = 0, effects = 0;
  std::string seen, payload;
  Status status = JournaledStep(
      nullptr, EventType::kWaveApplied, "r0/w0/applied", "test.step",
      [&]() -> StatusOr<std::string> {
        ++payloads;
        return std::string("intent");
      },
      [&](const std::string& p) {
        ++effects;
        seen = p;
        return Status::OK();
      },
      &payload);
  const auto reached = CrashPoints::Reached();
  CrashPoints::Reset();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(payloads, 1);
  EXPECT_EQ(effects, 1);
  EXPECT_EQ(seen, "intent");
  EXPECT_EQ(payload, "intent");
  EXPECT_TRUE(reached.empty());
  ExpectStepCountersMoved(before, {0, 0, 0});
}

TEST(JournaledStepTest, FreshStepAppendsThenRunsTheEffectThenCheckpoints) {
  auto ledger = OpenFreshLedger("journaled_step_fresh.kea");
  ASSERT_TRUE(ledger->Append(EventType::kWaveStarted, "earlier", "x").ok());
  std::vector<std::string> order;
  JournalContext ctx;
  ctx.ledger = ledger.get();
  ctx.durable_seq = 1;  // The checkpoint covers "earlier" only.
  ctx.checkpoint = [&](uint64_t covered_seq) {
    order.push_back("checkpoint " + std::to_string(covered_seq));
    return Status::OK();
  };
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  const std::vector<uint64_t> before = StepCounters();
  std::string payload;
  Status status = JournaledStep(
      &ctx, EventType::kWaveApplied, "step", "test.step",
      [&]() -> StatusOr<std::string> {
        order.push_back("payload");
        return std::string("intent");
      },
      [&](const std::string& p) {
        order.push_back("effect " + p +
                        (ledger->Has("step") ? " after append" : " before append"));
        return Status::OK();
      },
      &payload);
  const auto reached = CrashPoints::Reached();
  CrashPoints::Reset();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(payload, "intent");
  ASSERT_EQ(ledger->events().size(), 2u);
  EXPECT_EQ(ledger->events()[1].type, EventType::kWaveApplied);
  EXPECT_EQ(ledger->events()[1].key, "step");
  EXPECT_EQ(ledger->events()[1].payload, "intent");
  EXPECT_EQ(order, (std::vector<std::string>{
                       "payload", "effect intent after append", "checkpoint 2"}));
  // Both halves of the step, and the ledger append's own torn-write point.
  EXPECT_EQ(reached, (std::vector<std::pair<std::string, int>>{
                         {"journal.append.torn", 1},
                         {"test.step.post_record", 1},
                         {"test.step.pre", 1}}));
  ExpectStepCountersMoved(before, {0, 0, 1});
}

TEST(JournaledStepTest, RedriveReusesTheRecordedPayloadAndRerunsTheEffect) {
  auto ledger = OpenFreshLedger("journaled_step_redrive.kea");
  ASSERT_TRUE(ledger->Append(EventType::kWaveApplied, "step", "recorded").ok());
  std::vector<uint64_t> checkpoints;
  JournalContext ctx;
  ctx.ledger = ledger.get();
  ctx.durable_seq = 0;  // Journaled, but its effect never reached a checkpoint.
  ctx.checkpoint = [&](uint64_t covered_seq) {
    checkpoints.push_back(covered_seq);
    return Status::OK();
  };
  const std::vector<uint64_t> before = StepCounters();
  std::string seen, payload;
  Status status = JournaledStep(
      &ctx, EventType::kWaveApplied, "step", "test.step",
      [&]() -> StatusOr<std::string> {
        ADD_FAILURE() << "a re-driven step must not rebuild its payload";
        return std::string("rebuilt");
      },
      [&](const std::string& p) {
        seen = p;
        return Status::OK();
      },
      &payload);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(payload, "recorded");
  EXPECT_EQ(seen, "recorded");
  EXPECT_EQ(ledger->events().size(), 1u);
  EXPECT_EQ(checkpoints, std::vector<uint64_t>{1});
  ExpectStepCountersMoved(before, {0, 1, 0});
}

TEST(JournaledStepTest, ReplayReturnsTheRecordedPayloadAndRunsNothing) {
  auto ledger = OpenFreshLedger("journaled_step_replay.kea");
  ASSERT_TRUE(ledger->Append(EventType::kWaveApplied, "step", "recorded").ok());
  JournalContext ctx;
  ctx.ledger = ledger.get();
  ctx.durable_seq = 1;  // The restored checkpoint already holds the effect.
  ctx.checkpoint = [](uint64_t) {
    ADD_FAILURE() << "a replayed step must not checkpoint";
    return Status::OK();
  };
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  const std::vector<uint64_t> before = StepCounters();
  std::string payload;
  Status status = JournaledStep(
      &ctx, EventType::kWaveApplied, "step", "test.step",
      [&]() -> StatusOr<std::string> {
        ADD_FAILURE() << "a replayed step must not rebuild its payload";
        return std::string("rebuilt");
      },
      [](const std::string&) {
        ADD_FAILURE() << "a replayed step must not rerun its effect";
        return Status::OK();
      },
      &payload);
  const auto reached = CrashPoints::Reached();
  CrashPoints::Reset();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(payload, "recorded");
  EXPECT_EQ(ledger->events().size(), 1u);
  EXPECT_TRUE(reached.empty());
  ExpectStepCountersMoved(before, {1, 0, 0});
}

TEST(JournaledStepTest, FailingPayloadAppendsNothing) {
  const std::string name = "journaled_step_failing.kea";
  auto ledger = OpenFreshLedger(name);
  JournalContext ctx;
  ctx.ledger = ledger.get();
  ctx.checkpoint = [](uint64_t) {
    ADD_FAILURE() << "a failed step must not checkpoint";
    return Status::OK();
  };
  std::string payload;
  Status status = JournaledStep(
      &ctx, EventType::kRoundStarted, "step", "test.step",
      []() -> StatusOr<std::string> {
        return Status::FailedPrecondition("no plan");
      },
      [](const std::string&) {
        ADD_FAILURE() << "a failed step must not run its effect";
        return Status::OK();
      },
      &payload);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(ledger->events().empty());
  ledger.reset();
  auto reopened = DeploymentLedger::Open(testing::TempDir() + "/" + name);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE((*reopened)->events().empty());
}

TEST(DeploymentTest, StateRoundTripPreservesHistoryAndPendingBatch) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey key{0, 0};
  int current = GroupMax(cluster, key);
  ASSERT_TRUE(deploy.ApplyConservatively({{key, current, current + 1}}, &cluster).ok());

  DeploymentModule twin;
  ASSERT_TRUE(twin.RestoreState(deploy.SerializeState()).ok());
  EXPECT_EQ(twin.HistoryCsv(), deploy.HistoryCsv());
  EXPECT_TRUE(twin.has_pending_batch());
  // The restored twin can roll back the original's batch.
  ASSERT_TRUE(twin.RollbackLast(&cluster).ok());
  EXPECT_EQ(GroupMax(cluster, key), current);
  // Truncated blobs are rejected whole.
  std::string blob = deploy.SerializeState();
  EXPECT_EQ(twin.RestoreState(blob.substr(0, blob.size() / 2)).code(),
            StatusCode::kInvalidArgument);
  // So are trailing bytes.
  EXPECT_EQ(twin.RestoreState(blob + std::string(16, '\0')).code(),
            StatusCode::kInvalidArgument);
}

TEST(DeploymentTest, ClampIsPureAndRefusesInvalidOptions) {
  sim::MachineGroupKey a{0, 0}, b{0, 5};
  const std::vector<GroupRecommendation> recs = {{a, 7, 10}, {b, 9, 9}};
  DeploymentModule::Options options;
  options.max_step = 2;
  auto batch = DeploymentModule::Clamp(recs, options);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->size(), 1u);  // The no-op recommendation is omitted.
  EXPECT_EQ((*batch)[0].old_max_containers, 7);
  EXPECT_EQ((*batch)[0].new_max_containers, 9);
  EXPECT_TRUE((*batch)[0].clamped);

  // A negative step would hand std::clamp lo > hi; a floor below one would
  // let a group reach zero containers. Both are refused, and an apply with
  // them touches nothing.
  sim::Cluster cluster = MakeCluster();
  const std::vector<int> before = MaxContainers(cluster);
  DeploymentModule::Options negative;
  negative.max_step = -1;
  DeploymentModule::Options floorless;
  floorless.min_containers = 0;
  for (const DeploymentModule::Options& bad : {negative, floorless}) {
    EXPECT_EQ(DeploymentModule::Clamp(recs, bad).status().code(),
              StatusCode::kInvalidArgument);
    DeploymentModule deploy(bad);
    const int current = GroupMax(cluster, a);
    EXPECT_EQ(deploy.ApplyConservatively({{a, current, current + 1}}, &cluster)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(deploy.has_pending_batch());
  }
  EXPECT_EQ(MaxContainers(cluster), before);
}

TEST(DeploymentTest, SupersededBatchCannotBeRolledBack) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  sim::MachineGroupKey key{0, 0};
  int current = GroupMax(cluster, key);
  ASSERT_TRUE(deploy.ApplyConservatively({{key, current, current + 1}}, &cluster).ok());
  deploy.SupersedePendingBatch();
  EXPECT_FALSE(deploy.has_pending_batch());
  EXPECT_EQ(deploy.RollbackLast(&cluster).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(GroupMax(cluster, key), current + 1);
  EXPECT_EQ(deploy.history().size(), 1u);
}

TEST(DeploymentTest, Validation) {
  sim::Cluster cluster = MakeCluster();
  DeploymentModule deploy;
  EXPECT_EQ(deploy.ApplyConservatively({}, &cluster).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(deploy
                .ApplyConservatively({{sim::MachineGroupKey{0, 0}, 5, 6}},
                                     nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown group propagates NotFound from the cluster.
  EXPECT_EQ(deploy
                .ApplyConservatively({{sim::MachineGroupKey{8, 8}, 5, 6}},
                                     &cluster)
                .status()
                .code(),
            StatusCode::kNotFound);
  // An apply is all or nothing: a known group beside an unknown one is not
  // touched, and nothing is recorded or left pending.
  sim::MachineGroupKey known{0, 0};
  const int current = GroupMax(cluster, known);
  EXPECT_EQ(deploy
                .ApplyConservatively({{known, current, current + 1},
                                      {sim::MachineGroupKey{8, 8}, 5, 6}},
                                     &cluster)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(GroupMax(cluster, known), current);
  EXPECT_TRUE(deploy.history().empty());
  EXPECT_FALSE(deploy.has_pending_batch());
}

}  // namespace
}  // namespace kea::core
