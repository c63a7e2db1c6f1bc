#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"
#include "core/deployment.h"

namespace kea::apps {
namespace {

// The crash sweep runs one guarded round dozens of times, so the world is
// deliberately small: enough machines and telemetry for a meaningful fit and
// a two-wave rollout, nothing more.
constexpr int kMachines = 160;
constexpr int kPreludeHours = 48;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Slug(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

/// A durable session with a prelude of telemetry, deterministic in `dir` only.
std::unique_ptr<KeaSession> MakeDurableSession(const std::string& dir) {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = 7;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_TRUE(session->EnableDurability(dir).ok());
  EXPECT_TRUE(session->Simulate(kPreludeHours).ok());
  return session;
}

KeaSession::GuardedRoundOptions RoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = kPreludeHours;
  options.rollout.wave_fractions = {0.5, 1.0};
  options.rollout.observe_hours_per_wave = 6;
  options.rollout.baseline_hours = 12;
  return options;
}

std::string ClusterSignature(const KeaSession& session) {
  StateWriter w;
  for (const sim::Machine& m : session.cluster().machines()) {
    w.PutInt(m.id);
    w.PutInt(m.sc);
    w.PutInt(m.max_containers);
    w.PutInt(m.max_queued_containers);
    w.PutDouble(m.power_cap_fraction);
    w.PutBool(m.feature_enabled);
  }
  return w.Release();
}

std::string ReportSignature(const core::GuardrailedRollout::Report& report) {
  StateWriter w;
  w.PutInt(static_cast<int>(report.outcome));
  w.PutInt(report.tripped_wave);
  w.PutU64(report.machines_restored);
  w.PutU64(report.waves.size());
  for (const core::GuardrailedRollout::WaveResult& wave : report.waves) {
    w.PutInt(wave.wave);
    w.PutU64(wave.sub_clusters.size());
    for (int sc : wave.sub_clusters) w.PutInt(sc);
    w.PutU64(wave.machines_changed);
    w.PutI64(wave.observe_begin);
    w.PutI64(wave.observe_end);
    w.PutString(Encode(wave.eval));
    w.PutBool(wave.passed);
  }
  return w.Release();
}

/// Exactly-once at the patch level: across the whole ledger, no machine
/// appears twice under the same wave key — a re-driven wave records nothing
/// new, so a double-applied patch would show up here as a duplicate row.
void ExpectPatchesExactlyOnce(const core::DeploymentLedger& ledger) {
  auto table = ParseCsv(ledger.AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  int key_col = table->ColumnIndex("key");
  int kind_col = table->ColumnIndex("kind");
  int machine_col = table->ColumnIndex("machine_id");
  ASSERT_GE(key_col, 0);
  std::set<std::string> seen;
  for (const auto& row : table->rows) {
    if (row[static_cast<size_t>(kind_col)] != "wave_machine") continue;
    std::string patch = row[static_cast<size_t>(key_col)] + "#" +
                        row[static_cast<size_t>(machine_col)];
    EXPECT_TRUE(seen.insert(patch).second) << "machine patched twice: " << patch;
  }
}

std::string PlanSignature(const YarnConfigTuner::Plan& plan) {
  StateWriter w;
  w.PutU64(plan.recommendations.size());
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    w.PutInt(rec.group.sc);
    w.PutInt(rec.group.sku);
    w.PutInt(rec.current_max_containers);
    w.PutInt(rec.recommended_max_containers);
  }
  w.PutDouble(plan.predicted_capacity_gain);
  w.PutDouble(plan.predicted_latency_before_s);
  w.PutDouble(plan.predicted_latency_after_s);
  w.PutU64(plan.lp_solution.size());
  for (const auto& [group, value] : plan.lp_solution) {
    w.PutInt(group.sc);
    w.PutInt(group.sku);
    w.PutDouble(value);
  }
  return w.Release();
}

std::vector<int> MaxContainers(const KeaSession& session) {
  std::vector<int> config;
  for (const sim::Machine& m : session.cluster().machines()) {
    config.push_back(m.max_containers);
  }
  return config;
}

/// What one session call of an operation returned, in comparable form.
struct CallResult {
  std::string signature;
  /// A guarded round's rollout outcome.
  core::GuardrailedRollout::Outcome outcome =
      core::GuardrailedRollout::Outcome::kNoChange;
};

/// The operation under test: session calls made in order. A crash kills the
/// process inside one call; the resumed session makes that call again, then
/// the ones after it.
using Operation = std::vector<std::function<StatusOr<CallResult>(KeaSession&)>>;

Operation GuardedRound(const KeaSession::GuardedRoundOptions& options) {
  return {[options](KeaSession& session) -> StatusOr<CallResult> {
    KEA_ASSIGN_OR_RETURN(KeaSession::GuardedRound round,
                         session.RunGuardedTuningRound(options));
    return CallResult{ReportSignature(round.rollout), round.rollout.outcome};
  }};
}

/// An unguarded round, then the manual rollback of the batch it applied.
Operation UnguardedRoundThenRollback() {
  return {[](KeaSession& session) -> StatusOr<CallResult> {
            KEA_ASSIGN_OR_RETURN(
                KeaSession::TuningRound round,
                session.RunYarnTuningRound(YarnConfigTuner::Options(),
                                           kPreludeHours, 1));
            return CallResult{PlanSignature(round.plan) +
                              Encode(round.applied)};
          },
          [](KeaSession& session) -> StatusOr<CallResult> {
            KEA_RETURN_IF_ERROR(session.RollbackLastDeployment());
            return CallResult{};
          }};
}

/// Makes `op`'s calls from `*next` on, appending their results; on failure
/// `*next` is the call that failed.
Status RunCalls(KeaSession& session, const Operation& op, size_t* next,
                std::vector<CallResult>* results) {
  for (; *next < op.size(); ++*next) {
    KEA_ASSIGN_OR_RETURN(CallResult result, op[*next](session));
    results->push_back(std::move(result));
  }
  return Status::OK();
}

std::string Signatures(const std::vector<CallResult>& results) {
  StateWriter w;
  for (const CallResult& result : results) w.PutString(result.signature);
  return w.Release();
}

struct Reference {
  std::string report_sig;  ///< Signatures of every call.
  std::string cluster_sig;
  std::string store_csv;
  std::string ledger_csv;
  std::string history_csv;
  sim::HourIndex now = 0;
  /// The first call's outcome: the rollout outcome of a guarded round.
  core::GuardrailedRollout::Outcome outcome =
      core::GuardrailedRollout::Outcome::kNoChange;
  std::vector<std::pair<std::string, int>> crash_points;
};

/// Runs the uninterrupted reference operation with crash-point recording
/// on, so the sweep can enumerate every (point, occurrence) it reaches.
Reference RunReference(const std::string& dir, const Operation& op) {
  Reference ref;
  auto session = MakeDurableSession(dir);
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  std::vector<CallResult> results;
  size_t next = 0;
  Status status = RunCalls(*session, op, &next, &results);
  ref.crash_points = CrashPoints::Reached();
  CrashPoints::Reset();
  EXPECT_TRUE(status.ok()) << status;
  if (!status.ok()) return ref;
  ref.report_sig = Signatures(results);
  ref.outcome = results.front().outcome;
  ref.cluster_sig = ClusterSignature(*session);
  ref.store_csv = session->store().ToCsv();
  ref.ledger_csv = session->ledger()->AppliedChangesCsv();
  ref.history_csv = session->deployment().HistoryCsv();
  ref.now = session->now();
  return ref;
}

/// The tentpole harness: for every crash point the reference operation
/// reached, at every occurrence, kill the operation there, resume from disk,
/// make the remaining calls, and demand a bit-identical final world.
void SweepCrashPoints(const Reference& ref, const Operation& op,
                      const std::string& tag) {
  ASSERT_FALSE(ref.crash_points.empty());
  int scenario = 0;
  for (const auto& [point, hits] : ref.crash_points) {
    for (int occurrence = 0; occurrence < hits; ++occurrence, ++scenario) {
      SCOPED_TRACE(point + " occurrence " + std::to_string(occurrence));
      const std::string dir =
          FreshDir("crash_" + tag + "_" + std::to_string(scenario) + "_" +
                   Slug(point));
      auto session = MakeDurableSession(dir);

      CrashPoints::Arm(point, occurrence);
      std::vector<CallResult> results;
      size_t next = 0;
      Status crashed = RunCalls(*session, op, &next, &results);
      CrashPoints::Reset();
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(CrashPoints::IsCrash(crashed)) << crashed;
      session.reset();  // Process death: in-memory state is gone.

      auto resumed = KeaSession::Resume(dir);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      Status rerun = RunCalls(**resumed, op, &next, &results);
      ASSERT_TRUE(rerun.ok()) << rerun;

      // Bit-identical to the uninterrupted run: what each call returned, the
      // final per-machine configuration, the sim clock, the full telemetry
      // and the deployment history.
      EXPECT_EQ(Signatures(results), ref.report_sig);
      EXPECT_EQ(ClusterSignature(**resumed), ref.cluster_sig);
      EXPECT_EQ((*resumed)->now(), ref.now);
      EXPECT_EQ((*resumed)->store().ToCsv(), ref.store_csv);
      EXPECT_EQ((*resumed)->deployment().HistoryCsv(), ref.history_csv);
      // Exactly-once: the resumed ledger matches the single-run ledger — no
      // step recorded twice, none lost — and no machine is patched twice.
      EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ref.ledger_csv);
      ExpectPatchesExactlyOnce(*(*resumed)->ledger());
    }
  }
}

TEST(CrashRecoveryTest, SweepEveryCrashPointInConvergingRound) {
  auto options = RoundOptions();
  Reference ref =
      RunReference(FreshDir("crash_ref_converge"), GuardedRound(options));
  ASSERT_FALSE(ref.report_sig.empty());

  // The matrix must include both halves of every journaled session step —
  // died-before-journaling and journaled-but-not-durable — plus the torn
  // ledger append, the torn telemetry segment append and the checkpoint
  // rename.
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  for (const char* expected :
       {"session.round_started.pre", "session.round_started.post_record",
        "rollout.wave_started.pre", "rollout.wave_applied.post_record",
        "rollout.wave_observed.pre", "rollout.wave_verdict.post_record",
        "session.round_finished.pre", "session.round_finished.post_record",
        "journal.append.torn", "telemetry_segment.append.torn",
        "atomic_write.before_rename"}) {
    EXPECT_TRUE(names.count(expected)) << "unreached crash point: " << expected;
  }

  SweepCrashPoints(ref, GuardedRound(options), "converge");
}

TEST(CrashRecoveryTest, SweepEveryCrashPointThroughRollback) {
  // An impossible guardrail — latency must halve — trips the canary wave, so
  // this sweep covers the rollback step's crash points: a crash between the
  // journaled rollback intent and its effect must not lose the rollback.
  auto options = RoundOptions();
  options.rollout.guardrails.max_latency_ratio = 0.5;

  const std::string ref_dir = FreshDir("crash_ref_rollback");
  std::string pre_round_cluster;
  {
    auto session = MakeDurableSession(ref_dir);
    pre_round_cluster = ClusterSignature(*session);
  }
  Reference ref =
      RunReference(FreshDir("crash_ref_rollback2"), GuardedRound(options));
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_EQ(ref.outcome, core::GuardrailedRollout::Outcome::kRolledBack);
  // Rollback restores the exact pre-round configuration...
  EXPECT_EQ(ref.cluster_sig, pre_round_cluster);
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  EXPECT_TRUE(names.count("rollout.rollback.pre"));
  EXPECT_TRUE(names.count("rollout.rollback.post_record"));

  SweepCrashPoints(ref, GuardedRound(options), "rollback");
}

TEST(CrashRecoveryTest, SweepEveryCrashPointThroughUnguardedRoundAndRollback) {
  // The unguarded round (ROUND_STARTED, APPLY, ROUND_FINISHED) and the manual
  // rollback (MODULE_ROLLBACK) are journaled steps like the guarded round's:
  // a crash anywhere in either call resumes to the same world.
  std::string pre_round_cluster;
  {
    auto session = MakeDurableSession(FreshDir("crash_ref_unguarded"));
    pre_round_cluster = ClusterSignature(*session);
  }
  const Operation op = UnguardedRoundThenRollback();
  Reference ref = RunReference(FreshDir("crash_ref_unguarded2"), op);
  ASSERT_FALSE(ref.report_sig.empty());
  // The round changed groups, and the rollback restored every machine.
  auto history = ParseCsv(ref.history_csv);
  ASSERT_TRUE(history.ok()) << history.status();
  EXPECT_FALSE(history->rows.empty());
  EXPECT_EQ(ref.cluster_sig, pre_round_cluster);
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  for (const char* expected :
       {"session.round_started.pre", "session.round_started.post_record",
        "session.apply.pre", "session.apply.post_record",
        "session.round_finished.pre", "session.round_finished.post_record",
        "session.rollback.pre", "session.rollback.post_record",
        "journal.append.torn", "atomic_write.before_rename"}) {
    EXPECT_TRUE(names.count(expected)) << "unreached crash point: " << expected;
  }

  SweepCrashPoints(ref, op, "unguarded");
}

TEST(CrashRecoveryTest, UnguardedRoundJournalsApplyAndRollbackWriteAhead) {
  const std::string dir = FreshDir("crash_unguarded_ledger");
  auto session = MakeDurableSession(dir);
  const std::vector<int> before = MaxContainers(*session);

  // Write-ahead: a crash right after the APPLY append leaves the batch
  // journaled and every machine untouched.
  CrashPoints::Arm("session.apply.post_record", 0);
  auto crashed = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                             kPreludeHours, 1);
  CrashPoints::Reset();
  ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  EXPECT_TRUE(session->ledger()->Has("round/0/apply"));
  EXPECT_EQ(MaxContainers(*session), before);
  session.reset();

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& s = **resumed;
  auto round = s.RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_FALSE(round->applied.empty());
  ASSERT_TRUE(s.RollbackLastDeployment().ok());
  EXPECT_EQ(MaxContainers(s), before);
  // The ineffective second rollback mutates nothing and records nothing.
  const uint64_t events = s.ledger()->next_seq();
  EXPECT_EQ(s.RollbackLastDeployment().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.ledger()->next_seq(), events);

  using EventType = core::DeploymentLedger::EventType;
  const std::vector<std::pair<EventType, std::string>> expected = {
      {EventType::kRoundStarted, "round/0/started"},
      {EventType::kApply, "round/0/apply"},
      {EventType::kRoundFinished, "round/0/finished"},
      {EventType::kModuleRollback, "rollback/1"}};
  ASSERT_EQ(s.ledger()->events().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(s.ledger()->events()[i].type, expected[i].first) << i;
    EXPECT_EQ(s.ledger()->events()[i].key, expected[i].second) << i;
  }

  // The ledger's applied-change export carries one row per changed group.
  auto table = ParseCsv(s.ledger()->AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), round->applied.size());
  for (size_t i = 0; i < table->rows.size(); ++i) {
    const auto& row = table->rows[i];
    const core::AppliedChange& change = round->applied[i];
    EXPECT_EQ(row[table->ColumnIndex("key")], "round/0/apply");
    EXPECT_EQ(row[table->ColumnIndex("kind")], "group");
    EXPECT_EQ(row[table->ColumnIndex("sc")], std::to_string(change.group.sc));
    EXPECT_EQ(row[table->ColumnIndex("sku")], std::to_string(change.group.sku));
    EXPECT_EQ(row[table->ColumnIndex("machine_id")], "-1");
    EXPECT_EQ(row[table->ColumnIndex("new_max_containers")],
              std::to_string(change.new_max_containers));
  }
}

TEST(CrashRecoveryTest, NegativeDeployStepIsRefusedBeforeAnythingIsJournaled) {
  auto session = MakeDurableSession(FreshDir("crash_negative_step"));
  const std::vector<int> before = MaxContainers(*session);
  auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                           kPreludeHours, -1);
  EXPECT_EQ(round.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(MaxContainers(*session), before);
  EXPECT_TRUE(session->ledger()->events().empty());
  EXPECT_TRUE(session->deployment().history().empty());
  EXPECT_FALSE(session->deployment().has_pending_batch());
}

std::string RawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Every file under `dir` but the ledger, with its bytes: the checkpoint,
/// its generations and the telemetry segment.
std::map<std::string, std::string> CheckpointFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name != "ledger.kea") files[name] = RawRead(entry.path().string());
  }
  return files;
}

/// Makes `files` the only files under `dir` beside the ledger.
void PutBackCheckpointFiles(const std::string& dir,
                            const std::map<std::string, std::string>& files) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() != "ledger.kea") {
      std::filesystem::remove(entry.path());
    }
  }
  for (const auto& [name, bytes] : files) {
    std::ofstream(dir + "/" + name, std::ios::binary) << bytes;
  }
}

TEST(CrashRecoveryTest, ResumedUnguardedRoundAppliesTheRecordedBatch) {
  // A durable unguarded round, then the pre-round checkpoint files put back:
  // the disk a crash after the round's ledger appends, before their
  // checkpoints, leaves. The resumed session simulates on and calls the
  // round again with a wider step; the journal, not the new call, decides
  // what the fleet gets.
  KeaSession::Config config;
  config.machines = 400;
  config.seed = 5;
  const std::string dir = FreshDir("crash_unguarded_redrive");
  std::map<std::string, std::string> pre_round;
  std::string ledger_csv;
  std::string applied;
  {
    auto session = std::move(KeaSession::Create(config)).value();
    ASSERT_TRUE(session->EnableDurability(dir).ok());
    ASSERT_TRUE(session->Simulate(sim::kHoursPerWeek).ok());
    pre_round = CheckpointFiles(dir);
    auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                             sim::kHoursPerWeek, 1);
    ASSERT_TRUE(round.ok()) << round.status();
    ASSERT_FALSE(round->applied.empty());
    ledger_csv = session->ledger()->AppliedChangesCsv();
    applied = Encode(round->applied);
  }
  PutBackCheckpointFiles(dir, pre_round);

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& s = **resumed;
  ASSERT_TRUE(s.Simulate(24).ok());
  auto rerun = s.RunYarnTuningRound(YarnConfigTuner::Options(),
                                    sim::kHoursPerWeek, 2);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  EXPECT_EQ(Encode(rerun->applied), applied);
  EXPECT_EQ(s.ledger()->AppliedChangesCsv(), ledger_csv);

  // Every group of the recorded batch holds its recorded target.
  auto table = ParseCsv(ledger_csv);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_FALSE(table->rows.empty());
  for (const auto& row : table->rows) {
    const sim::MachineGroupKey group{
        std::stoi(row[table->ColumnIndex("sc")]),
        std::stoi(row[table->ColumnIndex("sku")])};
    const int target = std::stoi(row[table->ColumnIndex("new_max_containers")]);
    for (int id : s.cluster().groups().at(group)) {
      EXPECT_EQ(s.cluster().machines()[static_cast<size_t>(id)].max_containers,
                target)
          << "group (" << group.sc << "," << group.sku << ") machine " << id;
    }
  }
}

TEST(CrashRecoveryTest, SimulateAfterResumeRedrivesTheInFlightWave) {
  // Crash after wave 0's deltas are journaled, before they are applied. The
  // resumed session's Simulate checkpoints, and that checkpoint must not
  // cover the journaled deltas: the round re-drives them, so the fleet ends
  // where an uninterrupted converged round leaves it.
  std::vector<int> converged;
  {
    auto session = MakeDurableSession(FreshDir("crash_sim_resume_ref"));
    auto round = session->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(round.ok()) << round.status();
    ASSERT_EQ(round->rollout.outcome,
              core::GuardrailedRollout::Outcome::kConverged);
    converged = MaxContainers(*session);
  }
  const std::string dir = FreshDir("crash_sim_resume_wave");
  {
    auto session = MakeDurableSession(dir);
    ASSERT_NE(MaxContainers(*session), converged);
    CrashPoints::Arm("rollout.wave_applied.post_record", 0);
    auto crashed = session->RunGuardedTuningRound(RoundOptions());
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE((*resumed)->Simulate(2).ok());
  auto rerun = (*resumed)->RunGuardedTuningRound(RoundOptions());
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ASSERT_EQ(rerun->rollout.outcome, core::GuardrailedRollout::Outcome::kConverged);
  EXPECT_EQ(MaxContainers(**resumed), converged);
}

TEST(CrashRecoveryTest, SimulateAfterResumeLetsTheInFlightRoundFinish) {
  // Crash after ROUND_FINISHED is journaled, before its bookkeeping ran. A
  // Simulate checkpoint on the resumed session must not cover it either:
  // the next call finishes round 0, and later calls run rounds 1 and 2.
  const std::string dir = FreshDir("crash_sim_resume_finish");
  {
    auto session = MakeDurableSession(dir);
    CrashPoints::Arm("session.round_finished.post_record", 0);
    auto crashed = session->RunGuardedTuningRound(RoundOptions());
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE((*resumed)->Simulate(2).ok());
  for (int call = 0; call < 3; ++call) {
    auto round = (*resumed)->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(round.ok()) << "call " << call << ": " << round.status();
  }
  EXPECT_TRUE((*resumed)->ledger()->Has("round/2/finished"));
  EXPECT_FALSE((*resumed)->ledger()->Has("round/3/started"));
}

TEST(CrashRecoveryTest, InFlightStepIsCompletedByTheCallThatJournaledIt) {
  // An unguarded round in flight refuses a rollback and a guarded round;
  // a rollback in flight refuses both kinds of round. Each is completed by
  // calling its own entry point again.
  const std::string dir = FreshDir("crash_in_flight");
  {
    auto session = MakeDurableSession(dir);
    CrashPoints::Arm("session.round_finished.post_record", 0);
    auto crashed = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                               kPreludeHours, 1);
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  {
    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    KeaSession& s = **resumed;
    const uint64_t events = s.ledger()->next_seq();
    EXPECT_EQ(s.RollbackLastDeployment().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(s.RunGuardedTuningRound(RoundOptions()).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(s.ledger()->next_seq(), events);
    ASSERT_TRUE(
        s.RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1).ok());
    CrashPoints::Arm("session.rollback.post_record", 0);
    Status crashed = s.RollbackLastDeployment();
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed)) << crashed;
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& s = **resumed;
  EXPECT_EQ(s.RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.RunGuardedTuningRound(RoundOptions()).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(s.RollbackLastDeployment().ok());
  EXPECT_FALSE(s.deployment().has_pending_batch());
  EXPECT_TRUE(s.RunGuardedTuningRound(RoundOptions()).ok());
}

TEST(CrashRecoveryTest, EnableDurabilityRefusesAnEarlierSessionsLedger) {
  // A restarted process must Resume. EnableDurability over a ledger with
  // events used to cover it whole: the new session's rounds replayed the old
  // round's steps, returned "converged" and never deployed again.
  for (const bool torn : {false, true}) {
    SCOPED_TRACE(torn ? "torn tail" : "clean ledger");
    const std::string dir = FreshDir("crash_enable_over_ledger");
    std::string cluster_a;
    sim::HourIndex now_a = 0;
    {
      auto a = MakeDurableSession(dir);
      auto round = a->RunGuardedTuningRound(RoundOptions());
      ASSERT_TRUE(round.ok()) << round.status();
      cluster_a = ClusterSignature(*a);
      now_a = a->now();
    }
    if (torn) {
      // What a crash mid-append leaves: a frame header whose length runs
      // past the end of the file. Opening the ledger would repair it.
      std::string frame(8, '\0');
      frame[0] = 64;
      std::ofstream(dir + "/ledger.kea", std::ios::binary | std::ios::app)
          << frame << "abc";
    }
    auto files = [&] {
      std::map<std::string, std::string> bytes;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        bytes[entry.path().filename().string()] = RawRead(entry.path().string());
      }
      return bytes;
    };
    const std::map<std::string, std::string> before = files();
    ASSERT_TRUE(before.count("ledger.kea"));

    KeaSession::Config config;
    config.machines = kMachines;
    config.seed = 7;
    auto b = std::move(KeaSession::Create(config)).value();
    Status refused = b->EnableDurability(dir);
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
    EXPECT_NE(refused.message().find("Resume"), std::string::npos) << refused;
    EXPECT_EQ(b->ledger(), nullptr);
    ASSERT_TRUE(b->Simulate(kPreludeHours).ok());
    EXPECT_EQ(files(), before);

    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(ClusterSignature(**resumed), cluster_a);
    EXPECT_EQ((*resumed)->now(), now_a);
  }
}

/// A session with self-healing on, durable when `dir` is non-empty, and the
/// same telemetry prelude either way.
std::unique_ptr<KeaSession> MakeHealingSession(const std::string& dir) {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = 7;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_TRUE(session->EnableSelfHealing(KeaSession::SelfHealingConfig()).ok());
  if (!dir.empty()) {
    EXPECT_TRUE(session->EnableDurability(dir).ok());
  }
  EXPECT_TRUE(session->Simulate(kPreludeHours).ok());
  return session;
}

TEST(CrashRecoveryTest, DurableGuardedRoundMatchesPlainRound) {
  // Journaling and per-step checkpoints must not change a guarded round: two
  // rounds on a durable session end exactly where the same rounds on a plain
  // session do, for a converging rollout and for one that rolls back.
  auto rollback = RoundOptions();
  rollback.rollout.guardrails.max_latency_ratio = 0.5;
  const std::vector<std::pair<std::string, KeaSession::GuardedRoundOptions>>
      configs = {{"converge", RoundOptions()}, {"rollback", rollback}};
  for (const auto& [tag, options] : configs) {
    SCOPED_TRACE(tag);
    auto plain = MakeHealingSession("");
    auto durable = MakeHealingSession(FreshDir("crash_durable_vs_plain_" + tag));
    ASSERT_EQ(plain->ledger(), nullptr);
    ASSERT_NE(durable->ledger(), nullptr);
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      auto p = plain->RunGuardedTuningRound(options);
      auto d = durable->RunGuardedTuningRound(options);
      ASSERT_TRUE(p.ok()) << p.status();
      ASSERT_TRUE(d.ok()) << d.status();
      EXPECT_EQ(PlanSignature(p->plan), PlanSignature(d->plan));
      EXPECT_EQ(ReportSignature(p->rollout), ReportSignature(d->rollout));
      EXPECT_EQ(p->rollout.outcome, d->rollout.outcome);
      EXPECT_EQ(p->fit_begin, d->fit_begin);
      EXPECT_EQ(p->fit_end, d->fit_end);
      EXPECT_EQ(p->health_state, d->health_state);
      EXPECT_EQ(ClusterSignature(*plain), ClusterSignature(*durable));
      EXPECT_EQ(plain->store().ToCsv(), durable->store().ToCsv());
      EXPECT_EQ(plain->now(), durable->now());
      EXPECT_EQ(plain->fit_window(), durable->fit_window());
      EXPECT_EQ(plain->model_epoch(), durable->model_epoch());
      EXPECT_EQ(plain->deploy_epoch(), durable->deploy_epoch());
      if (tag == "rollback") {
        EXPECT_EQ(d->rollout.outcome,
                  core::GuardrailedRollout::Outcome::kRolledBack);
      }
      ASSERT_TRUE(plain->Simulate(12).ok());
      ASSERT_TRUE(durable->Simulate(12).ok());
    }
  }
}

TEST(CrashRecoveryTest, DurableUnguardedRoundMatchesPlainRound) {
  // The unguarded twin: journaling the plan, the batch and the outcome must
  // not change an unguarded round or the rollback after it.
  auto plain = MakeHealingSession("");
  auto durable = MakeHealingSession(FreshDir("crash_durable_vs_plain_unguarded"));
  auto expect_same_world = [&] {
    EXPECT_EQ(ClusterSignature(*plain), ClusterSignature(*durable));
    EXPECT_EQ(plain->store().ToCsv(), durable->store().ToCsv());
    EXPECT_EQ(plain->now(), durable->now());
    EXPECT_EQ(plain->fit_window(), durable->fit_window());
    EXPECT_EQ(plain->model_epoch(), durable->model_epoch());
    EXPECT_EQ(plain->deploy_epoch(), durable->deploy_epoch());
    EXPECT_EQ(plain->deployment().HistoryCsv(), durable->deployment().HistoryCsv());
    EXPECT_EQ(plain->deployment().has_pending_batch(),
              durable->deployment().has_pending_batch());
  };
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto p = plain->RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1);
    auto d = durable->RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1);
    ASSERT_TRUE(p.ok()) << p.status();
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(PlanSignature(p->plan), PlanSignature(d->plan));
    EXPECT_EQ(Encode(p->applied),
              Encode(d->applied));
    EXPECT_EQ(p->fit_begin, d->fit_begin);
    EXPECT_EQ(p->fit_end, d->fit_end);
    expect_same_world();
    ASSERT_TRUE(plain->Simulate(12).ok());
    ASSERT_TRUE(durable->Simulate(12).ok());
  }
  ASSERT_TRUE(plain->RollbackLastDeployment().ok());
  ASSERT_TRUE(durable->RollbackLastDeployment().ok());
  expect_same_world();
}

TEST(CrashRecoveryTest, ResumeOfCleanSessionIsBitIdentical) {
  const std::string dir = FreshDir("crash_clean_resume");
  auto session = MakeDurableSession(dir);
  auto round = session->RunGuardedTuningRound(RoundOptions());
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_TRUE(session->Simulate(12).ok());

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->now(), session->now());
  EXPECT_EQ(ClusterSignature(**resumed), ClusterSignature(*session));
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());
  EXPECT_EQ((*resumed)->deployment().HistoryCsv(),
            session->deployment().HistoryCsv());

  // The twins diverge from identical state: both simulate on, bit-identically.
  ASSERT_TRUE(session->Simulate(24).ok());
  ASSERT_TRUE((*resumed)->Simulate(24).ok());
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());

  // And validation works on the resumed twin (the fit engine was rebuilt).
  auto validation = (*resumed)->ValidateModels(core::ModelValidator::Options());
  EXPECT_TRUE(validation.ok()) << validation.status();
}

TEST(CrashRecoveryTest, ResumeRequiresACheckpoint) {
  EXPECT_EQ(KeaSession::Resume(FreshDir("crash_no_checkpoint")).status().code(),
            StatusCode::kNotFound);
}

TEST(CrashRecoveryTest, CheckpointRequiresDurability) {
  KeaSession::Config config;
  config.machines = 60;
  auto session = std::move(KeaSession::Create(config)).value();
  EXPECT_EQ(session->Checkpoint().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kea::apps
