#include <gtest/gtest.h>
#include <sys/stat.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/session.h"
#include "common/crash_point.h"
#include "common/csv.h"
#include "common/io.h"
#include "common/snapshot.h"
#include "common/storage_fault.h"
#include "core/deployment.h"
#include "obs/metrics.h"

namespace kea::apps {
namespace {

// The storage sweep runs one guarded round hundreds of times (every Io
// operation the round performs, crossed with every applicable fault kind),
// so the world is deliberately small: enough machines and telemetry for a
// meaningful fit and a two-wave rollout, nothing more.
constexpr int kMachines = 120;
constexpr int kPreludeHours = 36;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::remove((dir + "/ledger.kea").c_str());
  std::remove((dir + "/ledger.kea.tmp").c_str());
  std::remove((dir + "/ledger.kea.quarantine").c_str());
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::remove(checkpoint.c_str());
  std::remove((checkpoint + ".tmp").c_str());
  for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
    std::remove(SnapshotGenerations::GenerationPath(checkpoint, gen).c_str());
  }
  std::remove((dir + "/telemetry.kea").c_str());
  std::remove((dir + "/telemetry.kea.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string RawRead(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void RawWrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A durable session with a prelude of telemetry, deterministic in `dir`
/// only. The process-wide injector (installed by the fixture) is in
/// pass-through state while this runs, so setup is bit-exact fault-free.
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
  options.rollout.observe_hours_per_wave = 4;
  options.rollout.baseline_hours = 8;
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

struct Reference {
  std::string report_sig;
  std::string cluster_sig;
  std::string store_csv;
  std::string ledger_csv;
  std::string history_csv;
  sim::HourIndex now = 0;
  std::vector<std::pair<std::string, int>> fault_points;
};

/// One durable round under test: runs it on the session and returns a
/// signature of what it returned.
using RoundCall = std::function<StatusOr<std::string>(KeaSession&)>;

RoundCall GuardedRound(const KeaSession::GuardedRoundOptions& options) {
  return [options](KeaSession& session) -> StatusOr<std::string> {
    KEA_ASSIGN_OR_RETURN(KeaSession::GuardedRound round,
                         session.RunGuardedTuningRound(options));
    return ReportSignature(round.rollout);
  };
}

RoundCall UnguardedRound() {
  return [](KeaSession& session) -> StatusOr<std::string> {
    KEA_ASSIGN_OR_RETURN(
        KeaSession::TuningRound round,
        session.RunYarnTuningRound(YarnConfigTuner::Options(), kPreludeHours, 1));
    return Encode(round.applied);
  };
}

class StorageRecoveryTest : public testing::Test {
 protected:
  StorageRecoveryTest() : injector_(StorageFaultProfile::None(), /*seed=*/11) {
    Io::Get().ResetForTest();
    Io::Get().SetFaultInjector(&injector_);
  }
  ~StorageRecoveryTest() override { Io::Get().ResetForTest(); }

  /// Runs the uninterrupted reference round with occurrence recording on, so
  /// the sweep can enumerate every (op, occurrence) the round reaches. The
  /// injector is reset right after session setup — armed runs reset at the
  /// same point, so occurrence indices line up exactly.
  Reference RunReference(const std::string& dir, const RoundCall& round) {
    Reference ref;
    auto session = MakeDurableSession(dir);
    injector_.Reset();
    injector_.SetRecording(true);
    StatusOr<std::string> result = round(*session);
    ref.fault_points = injector_.Reached();
    injector_.SetRecording(false);
    injector_.Reset();
    EXPECT_TRUE(result.ok()) << result.status();
    if (!result.ok()) return ref;
    ref.report_sig = result.value();
    ref.cluster_sig = ClusterSignature(*session);
    ref.store_csv = session->store().ToCsv();
    ref.ledger_csv = session->ledger()->AppliedChangesCsv();
    ref.history_csv = session->deployment().HistoryCsv();
    ref.now = session->now();
    return ref;
  }
  Reference RunReference(const std::string& dir,
                         const KeaSession::GuardedRoundOptions& options) {
    return RunReference(dir, GuardedRound(options));
  }

  void ExpectMatchesReference(const Reference& ref, KeaSession& session,
                              const std::string& signature) {
    EXPECT_EQ(signature, ref.report_sig);
    EXPECT_EQ(ClusterSignature(session), ref.cluster_sig);
    EXPECT_EQ(session.now(), ref.now);
    EXPECT_EQ(session.store().ToCsv(), ref.store_csv);
    EXPECT_EQ(session.ledger()->AppliedChangesCsv(), ref.ledger_csv);
    EXPECT_EQ(session.deployment().HistoryCsv(), ref.history_csv);
    ExpectPatchesExactlyOnce(*session.ledger());
  }
  void ExpectMatchesReference(const Reference& ref, KeaSession& session,
                              const core::GuardrailedRollout::Report& rollout) {
    ExpectMatchesReference(ref, session, ReportSignature(rollout));
  }

  /// The write-fault sweep of one durable round; prints its own scenario
  /// line, prefixed by `label`. Defined below.
  void SweepWriteFaults(const std::string& name, const std::string& label,
                        const RoundCall& round);

  StorageFaultInjector injector_;
};

StorageOp OpByName(const std::string& name) {
  if (name == "read") return StorageOp::kRead;
  if (name == "write") return StorageOp::kWrite;
  if (name == "flush") return StorageOp::kFlush;
  return StorageOp::kRename;
}

/// Fault kinds that can strike each durable-path op mid-round. Read faults
/// are swept separately over Resume (the round itself performs no reads).
std::vector<StorageFaultKind> KindsForOp(StorageOp op) {
  switch (op) {
    case StorageOp::kWrite:
      return {StorageFaultKind::kTransientEio, StorageFaultKind::kPersistentEio,
              StorageFaultKind::kEnospc, StorageFaultKind::kShortWrite};
    case StorageOp::kFlush:
    case StorageOp::kRename:
      return {StorageFaultKind::kTransientEio,
              StorageFaultKind::kPersistentEio};
    case StorageOp::kRead:
      return {StorageFaultKind::kTransientEio, StorageFaultKind::kPersistentEio,
              StorageFaultKind::kBitFlip, StorageFaultKind::kZeroPage,
              StorageFaultKind::kTruncate};
  }
  return {};
}

// The tentpole harness: inject every fault kind at every Io operation the
// reference round performs. Whatever the injected failure, the final world
// must be bit-identical to the uninterrupted run — either because the
// bounded retry absorbed it in-line, or after degraded-mode refusal,
// process death, and a resume that re-drives the round from the journal.
void StorageRecoveryTest::SweepWriteFaults(const std::string& name,
                                           const std::string& label,
                                           const RoundCall& round) {
  Reference ref = RunReference(FreshDir("storage_ref_" + name), round);
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_FALSE(ref.fault_points.empty());

  // The round must exercise the full durable write path: ledger appends and
  // checkpoint installs (writes + flushes) and generation rotates (renames).
  std::set<std::string> ops;
  int total_occurrences = 0;
  for (const auto& [op, hits] : ref.fault_points) {
    ops.insert(op);
    total_occurrences += hits;
  }
  EXPECT_TRUE(ops.count("write"));
  EXPECT_TRUE(ops.count("flush"));
  EXPECT_TRUE(ops.count("rename"));
  std::cout << "[storage sweep] " << label << "fault points: ";
  for (const auto& [op, hits] : ref.fault_points) {
    std::cout << op << "=" << hits << " ";
  }
  std::cout << "(" << total_occurrences << " occurrences)" << std::endl;

  int scenario = 0;
  int absorbed = 0;
  int recovered = 0;
  for (const auto& [op_name, hits] : ref.fault_points) {
    const StorageOp op = OpByName(op_name);
    if (op == StorageOp::kRead) continue;  // Swept over Resume below.
    for (int occurrence = 0; occurrence < hits; ++occurrence) {
      for (StorageFaultKind kind : KindsForOp(op)) {
        ++scenario;
        SCOPED_TRACE(op_name + " occurrence " + std::to_string(occurrence) +
                     " kind " + StorageFaultKindName(kind));
        const std::string dir = FreshDir("storage_sweep_" + name + "_" +
                                         std::to_string(scenario));
        auto session = MakeDurableSession(dir);
        injector_.Reset();
        injector_.Arm(op, occurrence, kind);

        StatusOr<std::string> result = round(*session);
        injector_.Reset();  // Disarm + clear sticky: the disk is "replaced".

        if (result.ok()) {
          // The bounded retry absorbed the fault in-line; the world must not
          // have noticed (and the session must still be fully durable).
          ++absorbed;
          EXPECT_EQ(session->durability_mode(),
                    KeaSession::DurabilityMode::kDurable);
          ExpectMatchesReference(ref, *session, result.value());
          continue;
        }

        // The fault surfaced: it must be classified as a storage failure,
        // and the session must have sealed itself into degraded mode...
        ++recovered;
        ASSERT_TRUE(IsStorageFailure(result.status())) << result.status();
        ASSERT_EQ(session->durability_mode(),
                  KeaSession::DurabilityMode::kDegraded);
        EXPECT_FALSE(session->degraded_reason().ok());
        // ...which refuses anything that would touch the fleet.
        StatusOr<std::string> refused = round(*session);
        ASSERT_FALSE(refused.ok());
        EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
        EXPECT_NE(refused.status().message().find("degraded durability"),
                  std::string::npos)
            << refused.status();

        // Process death, then resume from whatever the faulty disk holds:
        // checkpoint generations + salvaged ledger re-drive the round to a
        // bit-identical conclusion with every patch applied exactly once.
        session.reset();
        auto resumed = KeaSession::Resume(dir);
        ASSERT_TRUE(resumed.ok()) << resumed.status();
        StatusOr<std::string> rerun = round(**resumed);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun.value());
      }
    }
  }
  std::cout << "[storage sweep] " << label << scenario
            << " scenarios: " << absorbed << " absorbed by retry, "
            << recovered << " recovered via degraded mode + resume"
            << std::endl;
  // Both recovery regimes must actually be exercised by the sweep.
  EXPECT_GT(absorbed, 0);
  EXPECT_GT(recovered, 0);
}

TEST_F(StorageRecoveryTest, SweepEveryFaultPointInGuardedRound) {
  SweepWriteFaults("round", "", GuardedRound(RoundOptions()));
}

// The unguarded round journals ROUND_STARTED, APPLY and ROUND_FINISHED like
// the guarded one: a storage failure after the apply degrades the session
// instead of returning OK, and a resume re-drives the recorded batch.
TEST_F(StorageRecoveryTest, SweepEveryFaultPointInUnguardedRound) {
  SweepWriteFaults("unguarded", "unguarded round: ", UnguardedRound());
}

// Read-path sweep: every read Resume() performs, crossed with every read
// fault kind. Transient EIO must be absorbed; persistent EIO must fail the
// resume without touching the disk (a later resume succeeds); at-rest
// corruption must either fall back to an older candidate and still re-drive
// a bit-identical world, or refuse to fabricate state — never silently
// diverge.
TEST_F(StorageRecoveryTest, SweepEveryResumeReadFault) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_resume"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  // Build one interrupted world: die at the final checkpoint install of the
  // round (a rename fault surfaces as a storage failure), so Resume has an
  // in-flight round to re-drive. The sweep then replays resumes of COPIES of
  // this world with one read fault armed each.
  const std::string dir = FreshDir("storage_resume_world");
  {
    auto session = MakeDurableSession(dir);
    injector_.Reset();
    // Strike a checkpoint install in the middle of the round.
    int renames = 0;
    for (const auto& [op, hits] : ref.fault_points) {
      if (op == "rename") renames = hits;
    }
    ASSERT_GT(renames, 1);
    injector_.Arm(StorageOp::kRename, renames / 2,
                  StorageFaultKind::kPersistentEio);
    auto round = session->RunGuardedTuningRound(options);
    injector_.Reset();
    ASSERT_FALSE(round.ok());
    ASSERT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
  }

  // Snapshot the on-disk world so every sweep iteration resumes from the
  // exact same bytes (a corrupting resume may repair files destructively,
  // and a successful rerun appends to the ledger and rolls generations).
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::vector<std::pair<std::string, std::string>> world;
  auto snapshot_file = [&](const std::string& path) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) world.emplace_back(path, RawRead(path));
  };
  snapshot_file(dir + "/ledger.kea");
  snapshot_file(dir + "/telemetry.kea");
  snapshot_file(checkpoint);
  for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
    snapshot_file(SnapshotGenerations::GenerationPath(checkpoint, gen));
  }
  auto restore_world = [&] {
    std::remove((dir + "/ledger.kea.quarantine").c_str());
    std::remove(checkpoint.c_str());
    for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
      std::remove(SnapshotGenerations::GenerationPath(checkpoint, gen).c_str());
    }
    for (const auto& [path, bytes] : world) RawWrite(path, bytes);
  };

  // Count the reads a clean resume performs (and prove it reconstructs the
  // reference world when re-driven).
  injector_.Reset();
  injector_.SetRecording(true);
  int reads = 0;
  {
    auto resumed = KeaSession::Resume(dir);
    for (const auto& [op, hits] : injector_.Reached()) {
      if (op == "read") reads = hits;
    }
    injector_.SetRecording(false);
    injector_.Reset();
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    auto rerun = (*resumed)->RunGuardedTuningRound(options);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    ExpectMatchesReference(ref, **resumed, rerun->rollout);
  }
  ASSERT_GT(reads, 0);
  std::cout << "[storage sweep] resume performs " << reads << " reads"
            << std::endl;

  int fallbacks = 0;
  int refusals = 0;
  for (int occurrence = 0; occurrence < reads; ++occurrence) {
    for (StorageFaultKind kind : KindsForOp(StorageOp::kRead)) {
      SCOPED_TRACE("read occurrence " + std::to_string(occurrence) + " kind " +
                   StorageFaultKindName(kind));
      restore_world();
      injector_.Reset();
      injector_.Arm(StorageOp::kRead, occurrence, kind);
      auto resumed = KeaSession::Resume(dir);
      const bool corruption = kind == StorageFaultKind::kBitFlip ||
                              kind == StorageFaultKind::kZeroPage ||
                              kind == StorageFaultKind::kTruncate;

      if (kind == StorageFaultKind::kTransientEio) {
        // Reads are idempotent: the bounded retry must absorb this in-line.
        injector_.Reset();
        ASSERT_TRUE(resumed.ok()) << resumed.status();
        auto rerun = (*resumed)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun->rollout);
        continue;
      }

      if (kind == StorageFaultKind::kPersistentEio) {
        // The disk is gone: resume must fail cleanly, touch nothing, and
        // succeed bit-identically once the disk is replaced.
        injector_.Reset();
        ASSERT_FALSE(resumed.ok());
        EXPECT_TRUE(IsStorageFailure(resumed.status())) << resumed.status();
        auto retried = KeaSession::Resume(dir);
        ASSERT_TRUE(retried.ok()) << retried.status();
        auto rerun = (*retried)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **retried, rerun->rollout);
        continue;
      }

      ASSERT_TRUE(corruption);
      injector_.Reset();
      if (resumed.ok()) {
        // The CRC machinery rejected the rotted image and fallback found an
        // older intact candidate: the re-driven world must still be
        // bit-identical (generation fallback + ledger replay catch up).
        if ((*resumed)->resume_generations_discarded() > 0) ++fallbacks;
        auto rerun = (*resumed)->RunGuardedTuningRound(options);
        ASSERT_TRUE(rerun.ok()) << rerun.status();
        ExpectMatchesReference(ref, **resumed, rerun->rollout);
      } else {
        // No intact candidate consistent with the (possibly salvaged)
        // ledger: the resume refuses rather than fabricating state.
        ++refusals;
        EXPECT_NE(resumed.status().code(), StatusCode::kAborted);
        EXPECT_FALSE(resumed.status().message().empty());
      }
    }
  }
  std::cout << "[storage sweep] resume corruption: " << fallbacks
            << " generation fallbacks, " << refusals << " refusals"
            << std::endl;
  // Corrupting the newest checkpoint must exercise the fallback path at
  // least once — otherwise generations are dead weight.
  EXPECT_GT(fallbacks, 0);
}

// In-process healing: a storage failure outside a round degrades the session
// but never kills it — tuning continues, deployments are refused, and
// TryRestoreDurability re-verifies the disk and restores the durable plane.
TEST_F(StorageRecoveryTest, DegradedModeRefusesDeploymentsUntilHealed) {
  const std::string dir = FreshDir("storage_degraded");
  auto session = MakeDurableSession(dir);
  auto options = RoundOptions();
  auto round = session->RunGuardedTuningRound(options);
  ASSERT_TRUE(round.ok()) << round.status();
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDurable);

  // The disk dies. The background checkpoint after Simulate() fails, but the
  // session survives: it enters degraded mode instead of failing the caller.
  injector_.Reset();
  injector_.Arm(StorageOp::kWrite, 0, StorageFaultKind::kPersistentEio);
  ASSERT_TRUE(session->Simulate(2).ok());
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);
  EXPECT_TRUE(IsStorageFailure(session->degraded_reason()));

  // Deployments and checkpoints are refused with a precondition failure...
  auto refused = session->RunGuardedTuningRound(options);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("degraded durability"),
            std::string::npos);
  EXPECT_EQ(session->Checkpoint().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->RollbackLastDeployment().code(),
            StatusCode::kFailedPrecondition);

  // ...but observation keeps flowing: the tuner keeps learning while the
  // storage plane is down (each Simulate auto-probes the disk and stays
  // degraded while it is still broken).
  ASSERT_TRUE(session->Simulate(2).ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);

  // An explicit heal attempt against the still-broken disk fails and the
  // session stays degraded.
  EXPECT_FALSE(session->TryRestoreDurability().ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);

  // Disk replaced: the heal re-opens the ledger, verifies no acknowledged
  // event was lost, re-checkpoints, and restores the durable plane.
  injector_.Reset();
  ASSERT_TRUE(session->TryRestoreDurability().ok());
  EXPECT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDurable);
  EXPECT_TRUE(session->degraded_reason().ok());
  // Healing an already-durable session is a precondition failure.
  EXPECT_EQ(session->TryRestoreDurability().code(),
            StatusCode::kFailedPrecondition);

  // The healed plane is fully functional: another round deploys and the
  // world survives a process death + resume.
  auto second = session->RunGuardedTuningRound(options);
  ASSERT_TRUE(second.ok()) << second.status();
  const std::string cluster = ClusterSignature(*session);
  const std::string store = session->store().ToCsv();
  const sim::HourIndex now = session->now();
  session.reset();
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(ClusterSignature(**resumed), cluster);
  EXPECT_EQ((*resumed)->store().ToCsv(), store);
  EXPECT_EQ((*resumed)->now(), now);
  ExpectPatchesExactlyOnce(*(*resumed)->ledger());
}

// At-rest corruption of the live checkpoint: Resume must fall back to the
// newest intact generation and reconstruct the same world (the scrub +
// ledger replay cover the gap). Flips a byte in every structural region of
// the container — magic, section count, headers, bodies, final byte.
TEST_F(StorageRecoveryTest, CorruptLiveCheckpointFallsBackAGeneration) {
  const std::string dir = FreshDir("storage_rot_checkpoint");
  auto options = RoundOptions();
  std::string cluster, store, ledger_csv;
  sim::HourIndex now = 0;
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunGuardedTuningRound(options);
    ASSERT_TRUE(round.ok()) << round.status();
    cluster = ClusterSignature(*session);
    store = session->store().ToCsv();
    ledger_csv = session->ledger()->AppliedChangesCsv();
    now = session->now();
  }
  const std::string checkpoint = dir + "/checkpoint.kea";
  const std::string intact = RawRead(checkpoint);
  ASSERT_FALSE(SnapshotGenerations::List(checkpoint).empty());

  const size_t n = intact.size();
  const std::vector<size_t> offsets = {0,      9,         15,        n / 5,
                                       n / 3,  n / 2,     2 * n / 3, 4 * n / 5,
                                       n - 2,  n - 1};
  for (size_t offset : offsets) {
    SCOPED_TRACE("corrupt byte " + std::to_string(offset));
    std::string rotted = intact;
    rotted[offset] ^= 0x41;
    RawWrite(checkpoint, rotted);

    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GE((*resumed)->resume_generations_discarded(), 1u);
    EXPECT_EQ(ClusterSignature(**resumed), cluster);
    EXPECT_EQ((*resumed)->store().ToCsv(), store);
    EXPECT_EQ((*resumed)->now(), now);
    EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ledger_csv);
    ExpectPatchesExactlyOnce(*(*resumed)->ledger());
  }
  RawWrite(checkpoint, intact);
}

// At-rest corruption of the ledger's first record: the scrub salvages an
// (almost empty) valid prefix, every surviving checkpoint then covers more
// events than the ledger holds, and Resume refuses to fabricate state
// rather than inventing a world the ledger cannot support.
TEST_F(StorageRecoveryTest, CorruptLedgerHeadRefusesToFabricate) {
  const std::string dir = FreshDir("storage_rot_ledger");
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(round.ok()) << round.status();
  }
  const std::string ledger_path = dir + "/ledger.kea";
  std::string bytes = RawRead(ledger_path);
  ASSERT_GT(bytes.size(), 20u);
  bytes[12] ^= 0x55;  // First record's header: everything after is suspect.
  RawWrite(ledger_path, bytes);

  auto resumed = KeaSession::Resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resumed.status().message().find("refusing to fabricate"),
            std::string::npos)
      << resumed.status();
  // The corrupt bytes were preserved for post-mortems, not destroyed.
  EXPECT_FALSE(RawRead(ledger_path + ".quarantine").empty());
}

/// Every file under `dir` with its bytes.
std::map<std::string, std::string> DirectoryBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = RawRead(entry.path().string());
  }
  return files;
}

/// Rewrites the live checkpoint and every generation in `dir` through
/// `rewrite`, which maps each section to its replacement (nullopt drops it).
void RewriteEveryGeneration(
    const std::string& dir,
    const std::function<std::optional<std::string>(const std::string& name,
                                                   const std::string& content)>&
        rewrite) {
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::vector<std::string> candidates = {checkpoint};
  for (uint64_t gen : SnapshotGenerations::List(checkpoint)) {
    candidates.push_back(SnapshotGenerations::GenerationPath(checkpoint, gen));
  }
  ASSERT_GT(candidates.size(), 1u);
  for (const std::string& path : candidates) {
    auto reader = SnapshotReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    SnapshotWriter writer;
    for (const auto& [name, content] : reader->sections()) {
      if (auto replaced = rewrite(name, content)) writer.AddSection(name, *replaced);
    }
    ASSERT_TRUE(writer.WriteFile(path).ok());
  }
}

/// Resume refuses `dir` by the format it found, and changes no file.
void ExpectRefusedByFormat(const std::string& dir, const std::string& found) {
  const std::map<std::string, std::string> before = DirectoryBytes(dir);
  ASSERT_TRUE(before.count("ledger.kea"));
  ASSERT_TRUE(before.count("telemetry.kea"));
  auto resumed = KeaSession::Resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("checkpoint is format " + found),
            std::string::npos)
      << resumed.status();
  EXPECT_NE(resumed.status().message().find(
                "this build reads format " +
                std::to_string(KeaSession::kCheckpointFormat)),
            std::string::npos)
      << resumed.status();
  EXPECT_TRUE(DirectoryBytes(dir) == before)
      << "Resume changed, added or removed a file";
}

// A checkpoint from before the format section (every earlier layout) is
// refused through every generation by the format it has, with no file
// changed.
TEST_F(StorageRecoveryTest, CheckpointWithoutFormatIsRefusedByName) {
  const std::string dir = FreshDir("storage_formatless_checkpoint");
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunGuardedTuningRound(RoundOptions());
    ASSERT_TRUE(round.ok()) << round.status();
  }
  RewriteEveryGeneration(
      dir, [](const std::string& name,
              const std::string& content) -> std::optional<std::string> {
        if (name == "format") return std::nullopt;
        return content;
      });
  ExpectRefusedByFormat(dir, "0");
}

// A checkpoint of a later format is refused through every generation by
// its number, with no file changed.
TEST_F(StorageRecoveryTest, CheckpointOfAnotherFormatIsRefusedByName) {
  const std::string dir = FreshDir("storage_format2_checkpoint");
  {
    auto session = MakeDurableSession(dir);
    auto round = session->RunYarnTuningRound(YarnConfigTuner::Options(),
                                             kPreludeHours, 1);
    ASSERT_TRUE(round.ok()) << round.status();
  }
  const uint32_t next = KeaSession::kCheckpointFormat + 1;
  RewriteEveryGeneration(
      dir, [next](const std::string& name,
                  const std::string& content) -> std::optional<std::string> {
        return name == "format" ? Encode(next) : content;
      });
  ExpectRefusedByFormat(dir, std::to_string(next));
}

/// `v`'s eight little-endian bytes, as the state archive writes an int or a
/// double's bits.
std::string LittleEndian(uint64_t v) {
  std::string bytes(8, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  return bytes;
}

// A checkpoint whose ingestion config asks for more than 64 write attempts
// (an earlier build took any count) is refused by name, with no file
// changed: a 65th attempt would draw the next write's first verdict.
TEST_F(StorageRecoveryTest, CheckpointWithRetryAttemptsAbove64IsRefused) {
  const std::string dir = FreshDir("storage_retry_attempts_65");
  constexpr double kBackoffMs = 12.375;
  {
    KeaSession::Config config;
    config.machines = kMachines;
    config.seed = 7;
    auto session = std::move(KeaSession::Create(config)).value();
    KeaSession::IngestionConfig ingestion;
    ingestion.faults = sim::FaultProfile::Moderate();
    ingestion.pipeline.retry.max_attempts = 64;
    ingestion.pipeline.retry.initial_backoff_ms = kBackoffMs;
    ASSERT_TRUE(session->EnableIngestionPipeline(ingestion).ok());
    ASSERT_TRUE(session->EnableDurability(dir).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(session->Simulate(4).ok());
  }
  // The config lists max_attempts, then initial_backoff_ms.
  const std::string backoff = LittleEndian(std::bit_cast<uint64_t>(kBackoffMs));
  const std::string at_64 = LittleEndian(64) + backoff;
  RewriteEveryGeneration(
      dir, [&](const std::string& name,
               const std::string& content) -> std::optional<std::string> {
        if (name != "config") return content;
        const size_t at = content.find(at_64);
        EXPECT_NE(at, std::string::npos);
        EXPECT_EQ(content.find(at_64, at + 1), std::string::npos);
        std::string patched = content;
        if (at != std::string::npos) patched.replace(at, at_64.size(), LittleEndian(65) + backoff);
        return patched;
      });
  const std::map<std::string, std::string> before = DirectoryBytes(dir);
  auto resumed = KeaSession::Resume(dir);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resumed.status().message().find("retry.max_attempts is 65"), std::string::npos)
      << resumed.status();
  EXPECT_NE(resumed.status().message().find("[1, 64]"), std::string::npos) << resumed.status();
  EXPECT_TRUE(DirectoryBytes(dir) == before) << "Resume changed, added or removed a file";
}

uint64_t Counter(const std::string& name) {
  return obs::Registry::Get().CounterValue(name);
}

uint64_t DurableBytesWritten() {
  return Counter("atomic_write.bytes") + Counter("journal.append_bytes") +
         Counter("durability.segment_append_bytes");
}

uintmax_t FileSize(const std::string& path) {
  return std::filesystem::file_size(path);
}

// Telemetry is written once. Every checkpoint appends one frame of the
// records added since the last — a 16-byte frame header and count, then 152
// bytes a record — and a whole durable round writes less than 4x the bytes
// of telemetry it adds. (Each checkpoint used to rewrite the history.)
TEST_F(StorageRecoveryTest, DurableRoundAppendsOnlyNewRecords) {
  const std::string dir = FreshDir("storage_append_only");
  const std::string segment = dir + "/telemetry.kea";
  auto session = MakeDurableSession(dir);

  // Outside a round each Simulate checkpoints once: one frame per call.
  for (int hours : {1, 3}) {
    const uintmax_t size_before = FileSize(segment);
    const size_t records_before = session->store().size();
    ASSERT_TRUE(session->Simulate(hours).ok());
    const size_t n = session->store().size() - records_before;
    EXPECT_GT(n, 0u);
    EXPECT_EQ(FileSize(segment) - size_before, 16 + 152 * n);
  }

  // A round appends once per checkpoint that follows new telemetry.
  const uintmax_t size_before = FileSize(segment);
  const size_t records_before = session->store().size();
  const uint64_t written_before = DurableBytesWritten();
  const uint64_t appended_before = Counter("durability.segment_append_bytes");
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  auto round = session->RunGuardedTuningRound(RoundOptions());
  int appends = 0;
  for (const auto& [point, hits] : CrashPoints::Reached()) {
    if (point == "telemetry_segment.append.torn") appends = hits;
  }
  CrashPoints::Reset();
  ASSERT_TRUE(round.ok()) << round.status();
  const size_t n = session->store().size() - records_before;
  ASSERT_GT(n, 0u);
  EXPECT_GT(appends, 0);
  const uintmax_t grown = FileSize(segment) - size_before;
  EXPECT_EQ(grown, 16 * static_cast<uintmax_t>(appends) + 152 * n);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(Counter("durability.segment_append_bytes") - appended_before,
              grown);
    const uint64_t written = DurableBytesWritten() - written_before;
    const uint64_t telemetry_bytes = 152 * n;
    std::cout << "[append-only] round wrote " << written << " bytes for "
              << telemetry_bytes << " bytes of telemetry (" << appends
              << " appends)" << std::endl;
    EXPECT_LT(written, 4 * telemetry_bytes);
  }
}

// Resume reads the segment and writes nothing: with one frame on disk past
// the live checkpoint's coverage (a crash between the append and the
// install), it restores exactly the covered prefix and every file keeps its
// bytes. The resumed session's first checkpoint then rewrites the segment.
TEST_F(StorageRecoveryTest, ResumeRestoresCoveredPrefixWithoutWriting) {
  const std::string dir = FreshDir("storage_resume_read_only");
  std::string covered;
  {
    auto session = MakeDurableSession(dir);
    covered = session->store().SerializeState();
    CrashPoints::Arm("atomic_write.before_rename");
    Status crashed = session->Simulate(2);
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed)) << crashed;
  }
  const std::map<std::string, std::string> before = DirectoryBytes(dir);
  // The magic, the prelude's frame, and the frame the crash left uncovered.
  const size_t frame_header = 8;
  ASSERT_EQ(before.at("telemetry.kea").size(),
            8 + (frame_header + covered.size()) + (16 + 152 * 2 * kMachines));

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->resume_generations_discarded(), 0u);
  EXPECT_EQ((*resumed)->store().SerializeState(), covered);
  EXPECT_TRUE(DirectoryBytes(dir) == before)
      << "Resume changed, added or removed a file";

  // The segment is longer than the restored coverage, so it is rewritten
  // whole, after which it again ends at the store's last record.
  const uint64_t rewrites_before = Counter("durability.segment_rewrites");
  ASSERT_TRUE((*resumed)->Checkpoint().ok());
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(Counter("durability.segment_rewrites") - rewrites_before, 1u);
  }
  EXPECT_EQ(FileSize(dir + "/telemetry.kea"),
            8 + frame_header + covered.size());
  auto again = KeaSession::Resume(dir);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ((*again)->store().SerializeState(), covered);
}

// A failed segment append makes the segment dirty: a persistent EIO on the
// round's first append degrades the session, the heal rewrites the segment
// once, and a later resume re-drives to the fault-free world bit for bit.
TEST_F(StorageRecoveryTest, FailedSegmentAppendIsHealedByOneRewrite) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_dirty"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  // The write occurrence of the round's first segment append: the number of
  // writes the round makes before that append's torn-write crash point.
  int occurrence = 0;
  {
    auto probe = MakeDurableSession(FreshDir("storage_dirty_probe"));
    injector_.Reset();
    injector_.SetRecording(true);
    CrashPoints::Arm("telemetry_segment.append.torn");
    auto crashed = probe->RunGuardedTuningRound(options);
    CrashPoints::Reset();
    for (const auto& [op, hits] : injector_.Reached()) {
      if (op == "write") occurrence = hits;
    }
    injector_.SetRecording(false);
    injector_.Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }

  const std::string dir = FreshDir("storage_dirty_segment");
  auto session = MakeDurableSession(dir);
  injector_.Reset();
  injector_.Arm(StorageOp::kWrite, occurrence,
                StorageFaultKind::kPersistentEio);
  auto round = session->RunGuardedTuningRound(options);
  ASSERT_FALSE(round.ok());
  ASSERT_TRUE(IsStorageFailure(round.status())) << round.status();
  ASSERT_EQ(session->durability_mode(), KeaSession::DurabilityMode::kDegraded);
  EXPECT_NE(session->degraded_reason().message().find("telemetry.kea"),
            std::string::npos)
      << session->degraded_reason();

  injector_.Reset();  // Disk replaced.
  const uint64_t rewrites_before = Counter("durability.segment_rewrites");
  ASSERT_TRUE(session->TryRestoreDurability().ok());
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(Counter("durability.segment_rewrites") - rewrites_before, 1u);
  }
  session.reset();

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto rerun = (*resumed)->RunGuardedTuningRound(options);
  ASSERT_TRUE(rerun.ok()) << rerun.status();
  ExpectMatchesReference(ref, **resumed, rerun->rollout);
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(Counter("durability.segment_rewrites") - rewrites_before, 1u);
  }
}

// A generation whose records pair the segment cannot reproduce — a count
// past the intact frames, or a CRC that does not match them — is discarded,
// and Resume falls back to an older one that the segment does reproduce.
TEST_F(StorageRecoveryTest, GenerationTheSegmentCannotReproduceIsDiscarded) {
  const std::string dir = FreshDir("storage_stale_generation");
  const std::string checkpoint = dir + "/checkpoint.kea";
  std::string store;
  {
    auto session = MakeDurableSession(dir);
    ASSERT_TRUE(session->Simulate(2).ok());
    store = session->store().SerializeState();
  }
  const std::string intact = RawRead(checkpoint);
  auto reader = SnapshotReader::Open(checkpoint);
  ASSERT_TRUE(reader.ok()) << reader.status();
  std::string records = std::move(reader->Section("records")).value();
  ASSERT_EQ(records.size(), 12u);  // u64 count + u32 CRC.
  const std::string bumped_count = [&] {
    std::string r = records;
    r[0] = static_cast<char>(r[0] + 1);
    return r;
  }();
  const std::string flipped_crc = [&] {
    std::string r = records;
    r[8] ^= 0x01;
    return r;
  }();

  for (const std::string& stale : {bumped_count, flipped_crc}) {
    SnapshotWriter writer;
    for (const auto& [name, content] : reader->sections()) {
      writer.AddSection(name, name == "records" ? stale : content);
    }
    ASSERT_TRUE(writer.WriteFile(checkpoint).ok());

    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GT((*resumed)->resume_generations_discarded(), 0u);
    // The older generation covers the store before the last Simulate.
    const std::string restored = (*resumed)->store().SerializeState();
    EXPECT_EQ((*resumed)->store().size(),
              (store.size() - 8) / 152 - 2 * static_cast<size_t>(kMachines));
    EXPECT_EQ(restored.substr(8), store.substr(8, restored.size() - 8));
  }
  RawWrite(checkpoint, intact);
}

// Profile-mode chaos: whole rounds under Moderate() background rot. Either
// the retries absorb everything (bit-identical world, still durable), or
// the session degrades and the resume path reconstructs the same world.
TEST_F(StorageRecoveryTest, ModerateRotRoundsMatchFaultFreeReference) {
  auto options = RoundOptions();
  Reference ref = RunReference(FreshDir("storage_ref_rot"), options);
  ASSERT_FALSE(ref.report_sig.empty());

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("rot seed " + std::to_string(seed));
    const std::string dir = FreshDir("storage_rot_" + std::to_string(seed));
    StorageFaultInjector rot(StorageFaultProfile::Moderate(), seed);
    // Setup stays fault-free (pass-through injector), then the round runs
    // under background rot — mirroring the reference's reset point.
    auto session = MakeDurableSession(dir);
    Io::Get().SetFaultInjector(&rot);
    auto round = session->RunGuardedTuningRound(options);
    Io::Get().SetFaultInjector(&injector_);
    injector_.Reset();

    if (round.ok()) {
      ExpectMatchesReference(ref, *session, round->rollout);
      continue;
    }
    ASSERT_TRUE(IsStorageFailure(round.status())) << round.status();
    EXPECT_EQ(session->durability_mode(),
              KeaSession::DurabilityMode::kDegraded);
    session.reset();
    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    auto rerun = (*resumed)->RunGuardedTuningRound(options);
    ASSERT_TRUE(rerun.ok()) << rerun.status();
    ExpectMatchesReference(ref, **resumed, rerun->rollout);
  }
}

}  // namespace
}  // namespace kea::apps
