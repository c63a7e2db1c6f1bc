#include "common/storage_fault.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/session.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "core/deployment_ledger.h"
#include "obs/metrics.h"

namespace kea {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Raw filesystem helpers that deliberately bypass the Io seam, so an
// installed injector can never perturb what a test reads or plants.
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

bool Exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

uint64_t Counter(const std::string& name) {
  return obs::Registry::Get().CounterValue(name);
}

class StorageFaultTest : public testing::Test {
 protected:
  void SetUp() override { Io::Get().ResetForTest(); }
  void TearDown() override { Io::Get().ResetForTest(); }
};

TEST_F(StorageFaultTest, ProfileDecisionsAreDeterministic) {
  StorageFaultInjector a(StorageFaultProfile::Moderate(), /*seed=*/17);
  StorageFaultInjector b(StorageFaultProfile::Moderate(), /*seed=*/17);
  const StorageOp ops[] = {StorageOp::kRead, StorageOp::kWrite,
                           StorageOp::kFlush, StorageOp::kRename};
  bool any_faulted = false;
  for (int i = 0; i < 400; ++i) {
    const StorageOp op = ops[i % 4];
    auto da = a.Next(op, "x");
    auto db = b.Next(op, "x");
    ASSERT_EQ(da.faulted, db.faulted) << "call " << i;
    if (da.faulted) {
      any_faulted = true;
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.draw, db.draw);
    }
  }
  // Moderate() must actually rot something in 400 draws, or chaos runs
  // built on it are silently fault-free.
  EXPECT_TRUE(any_faulted);
  EXPECT_EQ(a.counters().ops, 400u);
}

TEST_F(StorageFaultTest, EmptyProfileInstalledIsBitExactPassThrough) {
  const std::string journal_path = TempPath("sf_passthrough_journal.kea");
  const std::string snap_path = TempPath("sf_passthrough_snap.kea");

  auto run = [&] {
    std::remove(journal_path.c_str());
    std::remove(snap_path.c_str());
    auto journal = std::move(Journal::Open(journal_path)).value();
    EXPECT_TRUE(journal->Append("alpha").ok());
    EXPECT_TRUE(journal->Append(std::string("b\0b", 3)).ok());
    SnapshotWriter writer;
    writer.AddSection("meta", "state");
    writer.AddSection("rng", "cursor");
    EXPECT_TRUE(writer.WriteFile(snap_path).ok());
    return RawRead(journal_path) + "\x1f" + RawRead(snap_path);
  };

  const std::string without = run();
  StorageFaultInjector injector(StorageFaultProfile::None(), /*seed=*/5);
  Io::Get().SetFaultInjector(&injector);
  const std::string with = run();

  // The acceptance bar: installed-but-empty is bit-exact with not installed,
  // while still counting occurrences so sweeps can enumerate fault points.
  EXPECT_EQ(with, without);
  EXPECT_TRUE(injector.profile().empty());
  EXPECT_GT(injector.counters().ops, 0u);
  std::remove(journal_path.c_str());
  std::remove(snap_path.c_str());
}

TEST_F(StorageFaultTest, ArmedFaultFiresAtExactOccurrence) {
  const std::string path = TempPath("sf_armed.txt");
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kWrite, /*occurrence=*/2, StorageFaultKind::kShortWrite);

  EXPECT_TRUE(Io::Get().WriteFile(path, "one").ok());
  EXPECT_TRUE(Io::Get().WriteFile(path, "two").ok());
  Status third = Io::Get().WriteFile(path, "0123456789");
  EXPECT_EQ(third.code(), StatusCode::kInternal);
  EXPECT_NE(third.message().find("short_write"), std::string::npos) << third;
  EXPECT_TRUE(IsStorageFailure(third));
  // The torn prefix really is on disk: half the bytes, not zero, not all.
  EXPECT_EQ(RawRead(path), "01234");
  EXPECT_EQ(injector.counters().short_writes, 1u);
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, TransientEioIsAbsorbedByBoundedRetry) {
  const std::string path = TempPath("sf_transient.txt");
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kWrite, 0, StorageFaultKind::kTransientEio);

  const uint64_t retries_before = Counter("durability.retries");
  EXPECT_TRUE(Io::Get().WriteFile(path, "survives").ok());
  EXPECT_EQ(RawRead(path), "survives");
  EXPECT_GE(Io::Get().retry_stats().retries, 1);
  if (obs::MetricsEnabled()) {
    EXPECT_GE(Counter("durability.retries"), retries_before + 1);
  }
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, PersistentEioSticksUntilDiskReplaced) {
  const std::string path = TempPath("sf_persistent.txt");
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kWrite, 0, StorageFaultKind::kPersistentEio);

  const uint64_t exhausted_before = Counter("durability.retries_exhausted");
  Status failed = Io::Get().WriteFile(path, "never lands");
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsStorageFailure(failed));
  if (obs::MetricsEnabled()) {
    EXPECT_GE(Counter("durability.retries_exhausted"), exhausted_before + 1);
  }
  // Sticky: nothing is armed anymore, but the op keeps failing...
  injector.ClearArmed();
  EXPECT_FALSE(Io::Get().WriteFile(path, "still broken").ok());
  // ...until the disk is "replaced".
  injector.ClearPersistent();
  EXPECT_TRUE(Io::Get().WriteFile(path, "healed").ok());
  EXPECT_EQ(RawRead(path), "healed");
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, EnospcMapsToResourceExhaustedAndSticks) {
  const std::string path = TempPath("sf_enospc.txt");
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kWrite, 0, StorageFaultKind::kEnospc);

  EXPECT_EQ(Io::Get().WriteFile(path, "x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Io::Get().WriteFile(path, "x").code(),
            StatusCode::kResourceExhausted);  // A full disk stays full.
  injector.ClearPersistent();
  EXPECT_TRUE(Io::Get().WriteFile(path, "x").ok());
  std::remove(path.c_str());
}

// Satellite regression: AtomicWriteFile must remove `<path>.tmp` on EVERY
// live error path — write fault, short write, rename fault — and leave the
// old file untouched. Only simulated process death may strand the temp.
TEST_F(StorageFaultTest, AtomicWriteNeverStrandsTempOnFailure) {
  const std::string path = TempPath("sf_atomic.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents").ok());
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);

  const StorageFaultKind write_kinds[] = {StorageFaultKind::kPersistentEio,
                                          StorageFaultKind::kShortWrite,
                                          StorageFaultKind::kEnospc};
  for (StorageFaultKind kind : write_kinds) {
    SCOPED_TRACE(StorageFaultKindName(kind));
    injector.Reset();
    injector.Arm(StorageOp::kWrite, 0, kind);
    EXPECT_FALSE(AtomicWriteFile(path, "new contents").ok());
    EXPECT_FALSE(Exists(path + ".tmp")) << "stray temp after write fault";
    EXPECT_EQ(RawRead(path), "old contents");
    injector.ClearPersistent();
  }

  injector.Reset();
  injector.Arm(StorageOp::kRename, 0, StorageFaultKind::kPersistentEio);
  EXPECT_FALSE(AtomicWriteFile(path, "new contents").ok());
  EXPECT_FALSE(Exists(path + ".tmp")) << "stray temp after rename fault";
  EXPECT_EQ(RawRead(path), "old contents");

  injector.Reset();
  EXPECT_TRUE(AtomicWriteFile(path, "new contents").ok());
  EXPECT_EQ(RawRead(path), "new contents");
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, ReadCorruptionPerturbsImageNotDisk) {
  const std::string path = TempPath("sf_read_corrupt.kea");
  SnapshotWriter writer;
  writer.AddSection("meta", std::string(256, 'm'));
  writer.AddSection("telemetry", std::string(512, 't'));
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const std::string intact = RawRead(path);

  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  const StorageFaultKind kinds[] = {StorageFaultKind::kBitFlip,
                                    StorageFaultKind::kZeroPage,
                                    StorageFaultKind::kTruncate};
  for (StorageFaultKind kind : kinds) {
    SCOPED_TRACE(StorageFaultKindName(kind));
    injector.Reset();
    injector.Arm(StorageOp::kRead, 0, kind);
    // The rotted image must be rejected whole by the CRC machinery...
    EXPECT_EQ(SnapshotReader::Open(path).status().code(),
              StatusCode::kInvalidArgument);
    // ...and the file on disk is untouched: the rot was in the read image.
    EXPECT_EQ(RawRead(path), intact);
    injector.Reset();
    EXPECT_TRUE(SnapshotReader::Open(path).ok());
  }
  EXPECT_EQ(injector.counters().corrupted_reads, 0u);  // Reset cleared them.
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, AppendFlushFaultIsIndeterminateButDurable) {
  const std::string path = TempPath("sf_append_flush.kea");
  std::remove(path.c_str());
  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_TRUE(journal->Append("first").ok());

  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kFlush, 0, StorageFaultKind::kTransientEio);
  Status st = journal->Append("maybe durable");
  // Post-append flush faults are NEVER retried, whatever the kind: the bytes
  // may already be durable and a retry would duplicate the record.
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("indeterminate"), std::string::npos) << st;
  journal.reset();
  Io::Get().ResetForTest();

  // In this case the append HAD fully landed: reopen finds both records —
  // the orphan the ledger's idempotency keys will re-drive exactly once.
  auto reopened = std::move(Journal::Open(path)).value();
  ASSERT_EQ(reopened->size(), 2u);
  EXPECT_EQ(reopened->records()[1], "maybe durable");
  std::remove(path.c_str());
}

TEST_F(StorageFaultTest, AppendShortWriteIsSalvagedOnReopen) {
  const std::string path = TempPath("sf_append_short.kea");
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_TRUE(journal->Append("keep me").ok());

  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.Arm(StorageOp::kWrite, 0, StorageFaultKind::kShortWrite);
  EXPECT_FALSE(journal->Append("torn record").ok());
  journal.reset();
  injector.Reset();

  auto reopened = std::move(Journal::Open(path)).value();
  ASSERT_EQ(reopened->size(), 1u);
  EXPECT_EQ(reopened->records()[0], "keep me");
  EXPECT_TRUE(reopened->recovery().tail_truncated);
  EXPECT_GT(reopened->recovery().dropped_bytes, 0u);
  // The torn bytes were preserved for post-mortems before the repair.
  ASSERT_TRUE(Exists(reopened->recovery().quarantine_path));
  EXPECT_EQ(RawRead(reopened->recovery().quarantine_path).size(),
            reopened->recovery().dropped_bytes);
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST_F(StorageFaultTest, ScrubDryRunReportsRepairFixes) {
  const std::string path = TempPath("sf_scrub.kea");
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  {
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_TRUE(journal->Append("record zero").ok());
    ASSERT_TRUE(journal->Append("record one").ok());
    ASSERT_TRUE(journal->Append("record two").ok());
  }
  // Rot one payload byte of the middle record at rest.
  std::string bytes = RawRead(path);
  const size_t r0_end = 8 + 8 + 11;        // magic + header + "record zero"
  bytes[r0_end + 8 + 3] ^= 0x10;           // inside "record one"'s payload
  RawWrite(path, bytes);

  // Dry run: report the damage, touch nothing.
  auto dry = std::move(Journal::Scrub(path, /*repair=*/false)).value();
  EXPECT_EQ(dry.records, 1u);
  EXPECT_EQ(dry.corrupt_bytes, bytes.size() - r0_end);
  EXPECT_FALSE(dry.repaired);
  EXPECT_EQ(RawRead(path), bytes);

  // Repair: quarantine the corrupt tail, rewrite to the valid prefix.
  auto fixed = std::move(Journal::Scrub(path, /*repair=*/true)).value();
  EXPECT_TRUE(fixed.repaired);
  EXPECT_EQ(fixed.records, 1u);
  ASSERT_TRUE(Exists(fixed.quarantine_path));
  EXPECT_EQ(RawRead(fixed.quarantine_path).size(), fixed.corrupt_bytes);

  auto clean = std::move(Journal::Scrub(path, /*repair=*/true)).value();
  EXPECT_EQ(clean.records, 1u);
  EXPECT_EQ(clean.corrupt_bytes, 0u);
  EXPECT_FALSE(clean.repaired);

  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_EQ(journal->size(), 1u);
  EXPECT_EQ(journal->records()[0], "record zero");
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST_F(StorageFaultTest, LedgerVerifyIntegrityIsReadOnly) {
  const std::string path = TempPath("sf_ledger_verify.kea");
  std::remove(path.c_str());
  auto ledger = std::move(core::DeploymentLedger::Open(path)).value();
  ASSERT_TRUE(ledger
                  ->Append(core::DeploymentLedger::EventType::kRoundStarted,
                           "r0/started", "plan")
                  .ok());
  ASSERT_TRUE(ledger
                  ->Append(core::DeploymentLedger::EventType::kRoundFinished,
                           "r0/finished", "outcome")
                  .ok());
  auto clean = std::move(ledger->VerifyIntegrity()).value();
  EXPECT_EQ(clean.records, 2u);
  EXPECT_EQ(clean.corrupt_bytes, 0u);

  // Rot the last byte at rest: the dry-run scrub sees it, the file keeps it.
  std::string bytes = RawRead(path);
  bytes.back() ^= 0x01;
  RawWrite(path, bytes);
  auto damaged = std::move(ledger->VerifyIntegrity()).value();
  EXPECT_EQ(damaged.records, 1u);
  EXPECT_GT(damaged.corrupt_bytes, 0u);
  EXPECT_FALSE(damaged.repaired);
  EXPECT_EQ(RawRead(path), bytes);
  std::remove(path.c_str());
}

// --- Snapshot reader strictness (distinct rejection messages) -------------

// Hand-built container so each structural violation can be planted exactly.
std::string BuildSnapshot(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  auto put_u32 = [](uint32_t v, std::string* out) {
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>((v >> 8) & 0xff));
    out->push_back(static_cast<char>((v >> 16) & 0xff));
    out->push_back(static_cast<char>((v >> 24) & 0xff));
  };
  std::string out("KEASNP01", 8);
  put_u32(static_cast<uint32_t>(sections.size()), &out);
  for (const auto& [name, content] : sections) {
    put_u32(static_cast<uint32_t>(name.size()), &out);
    out += name;
    put_u32(static_cast<uint32_t>(content.size()), &out);
    put_u32(Crc32Extend(Crc32(name), content), &out);
    out += content;
  }
  return out;
}

Status OpenRaw(const std::string& path, const std::string& bytes) {
  RawWrite(path, bytes);
  return SnapshotReader::Open(path).status();
}

TEST_F(StorageFaultTest, SnapshotStrictnessHasDistinctErrors) {
  const std::string path = TempPath("sf_snap_strict.kea");
  const std::string valid =
      BuildSnapshot({{"alpha", "aaaa"}, {"beta", "bbbb"}});
  ASSERT_TRUE(OpenRaw(path, valid).ok());

  // Duplicate section names: both parse, both CRC clean — still rejected.
  Status dup = OpenRaw(
      path, BuildSnapshot({{"alpha", "aaaa"}, {"alpha", "aaaa"}}));
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(dup.message().find("duplicate section"), std::string::npos) << dup;

  // Declared count above what the bytes hold: truncation at an exact section
  // boundary, which no per-section CRC can catch.
  std::string over = valid;
  over[8] = 3;  // section_count 2 -> 3 (little-endian low byte)
  Status count = OpenRaw(path, over);
  EXPECT_EQ(count.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(count.message().find("section count mismatch"), std::string::npos)
      << count;

  // Declared count below: the extra section becomes trailing garbage.
  std::string under = valid;
  under[8] = 1;
  Status trailer = OpenRaw(path, under);
  EXPECT_EQ(trailer.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(trailer.message().find("trailer mismatch"), std::string::npos)
      << trailer;

  // Appended junk after the declared sections.
  Status junk = OpenRaw(path, valid + "x");
  EXPECT_EQ(junk.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(junk.message().find("trailer mismatch"), std::string::npos);

  // A rotted content byte names the failing section.
  std::string rot = valid;
  rot[rot.size() - 1] ^= 0x04;
  Status crc = OpenRaw(path, rot);
  EXPECT_EQ(crc.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(crc.message().find("CRC mismatch in section 'beta'"),
            std::string::npos)
      << crc;
  std::remove(path.c_str());
}

// Satellite property test: ANY single-bit corruption of a valid container is
// detected — every byte is covered by the magic check, the section count +
// trailer check, the structural length fields, or a name+content CRC.
TEST_F(StorageFaultTest, SnapshotDetectsEverySingleBitCorruption) {
  const std::string path = TempPath("sf_snap_every_bit.kea");
  const std::string valid =
      BuildSnapshot({{"meta", "0123456789"}, {"rng", std::string(32, 'r')}});
  ASSERT_TRUE(OpenRaw(path, valid).ok());

  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = valid;
      bad[byte] ^= static_cast<char>(1u << bit);
      EXPECT_FALSE(OpenRaw(path, bad).ok())
          << "undetected corruption at byte " << byte << " bit " << bit;
    }
  }
  std::remove(path.c_str());
}

// --- Snapshot generations -------------------------------------------------

class GenerationsTest : public StorageFaultTest {
 protected:
  std::string FreshLive(const std::string& name) {
    const std::string live = TempPath(name);
    std::remove(live.c_str());
    std::remove((live + ".tmp").c_str());
    for (uint64_t gen : SnapshotGenerations::List(live)) {
      std::remove(SnapshotGenerations::GenerationPath(live, gen).c_str());
    }
    return live;
  }

  static SnapshotWriter Versioned(int v) {
    SnapshotWriter w;
    w.AddSection("state", "version " + std::to_string(v));
    return w;
  }

  static std::string StateOf(const SnapshotReader& reader) {
    return std::move(reader.Section("state")).value();
  }
};

TEST_F(GenerationsTest, WriteRotatesAndPrunesToKeep) {
  const std::string live = FreshLive("sf_gen_rotate.kea");
  for (int v = 1; v <= 5; ++v) {
    ASSERT_TRUE(SnapshotGenerations::Write(Versioned(v), live, /*keep=*/2).ok());
  }
  // Live holds v5; the two newest rotated generations hold v3 and v4.
  EXPECT_EQ(StateOf(std::move(SnapshotReader::Open(live)).value()),
            "version 5");
  std::vector<uint64_t> gens = SnapshotGenerations::List(live);
  ASSERT_EQ(gens.size(), 2u);
  EXPECT_EQ(gens[0], 3u);
  EXPECT_EQ(gens[1], 4u);
  EXPECT_EQ(StateOf(std::move(SnapshotReader::Open(
                        SnapshotGenerations::GenerationPath(live, 4)))
                        .value()),
            "version 4");

  auto restored = std::move(SnapshotGenerations::RestoreLatestValid(live)).value();
  EXPECT_EQ(restored.generation, 0u);
  EXPECT_EQ(restored.discarded, 0u);
  EXPECT_EQ(StateOf(restored.reader), "version 5");
}

TEST_F(GenerationsTest, KeepZeroIsPlainWrite) {
  const std::string live = FreshLive("sf_gen_keep0.kea");
  ASSERT_TRUE(SnapshotGenerations::Write(Versioned(1), live, /*keep=*/0).ok());
  ASSERT_TRUE(SnapshotGenerations::Write(Versioned(2), live, /*keep=*/0).ok());
  EXPECT_TRUE(SnapshotGenerations::List(live).empty());
  EXPECT_EQ(StateOf(std::move(SnapshotReader::Open(live)).value()),
            "version 2");
}

TEST_F(GenerationsTest, RestoreFallsBackThroughCorruptCandidates) {
  const std::string live = FreshLive("sf_gen_fallback.kea");
  for (int v = 1; v <= 4; ++v) {
    ASSERT_TRUE(SnapshotGenerations::Write(Versioned(v), live, /*keep=*/3).ok());
  }
  // Rot the live file (v4) and the newest generation (v3) at rest.
  std::string bytes = RawRead(live);
  bytes[bytes.size() - 1] ^= 0x20;
  RawWrite(live, bytes);
  const std::string g3 = SnapshotGenerations::GenerationPath(live, 3);
  RawWrite(g3, RawRead(g3).substr(0, 10));

  const uint64_t discarded_before = Counter("durability.generations_discarded");
  auto restored = std::move(SnapshotGenerations::RestoreLatestValid(live)).value();
  EXPECT_EQ(restored.generation, 2u);
  EXPECT_EQ(restored.discarded, 2u);
  EXPECT_EQ(restored.source_path, SnapshotGenerations::GenerationPath(live, 2));
  EXPECT_EQ(StateOf(restored.reader), "version 2");
  if (obs::MetricsEnabled()) {
    EXPECT_EQ(Counter("durability.generations_discarded"),
              discarded_before + 2);
  }

  // Every candidate corrupt: surface the last error, never fabricate.
  RawWrite(SnapshotGenerations::GenerationPath(live, 2), "rot");
  RawWrite(SnapshotGenerations::GenerationPath(live, 1), "rot");
  auto none = SnapshotGenerations::RestoreLatestValid(live);
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GenerationsTest, RestoreAppliesValidator) {
  const std::string live = FreshLive("sf_gen_validator.kea");
  for (int v = 1; v <= 3; ++v) {
    ASSERT_TRUE(SnapshotGenerations::Write(Versioned(v), live, /*keep=*/3).ok());
  }
  // A validator in the shape Resume uses: "coverage must not exceed what the
  // ledger holds" — here, only version 1 is admissible.
  auto admissible = [](const SnapshotReader& reader) -> Status {
    auto state = reader.Section("state");
    if (!state.ok()) return state.status();
    if (*state != "version 1") {
      return Status::FailedPrecondition("covers more than the ledger holds");
    }
    return Status::OK();
  };
  auto restored =
      std::move(SnapshotGenerations::RestoreLatestValid(live, admissible))
          .value();
  EXPECT_EQ(restored.generation, 1u);
  EXPECT_EQ(restored.discarded, 2u);
  EXPECT_EQ(StateOf(restored.reader), "version 1");

  EXPECT_EQ(SnapshotGenerations::RestoreLatestValid(
                FreshLive("sf_gen_absent.kea"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(GenerationsTest, WriteWithoutLiveFilePrunesStaleGenerations) {
  const std::string live = FreshLive("sf_gen_no_live.kea");
  for (int v = 1; v <= 4; ++v) {
    ASSERT_TRUE(SnapshotGenerations::Write(Versioned(v), live, /*keep=*/3).ok());
  }
  // A crash between the rotate and the install leaves no live file.
  std::remove(live.c_str());
  ASSERT_TRUE(SnapshotGenerations::Write(Versioned(5), live, /*keep=*/2).ok());
  // Nothing to rotate: the install lands and the oldest generation goes.
  EXPECT_EQ(StateOf(std::move(SnapshotReader::Open(live)).value()),
            "version 5");
  EXPECT_EQ(SnapshotGenerations::List(live), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(StateOf(std::move(SnapshotReader::Open(
                        SnapshotGenerations::GenerationPath(live, 3)))
                        .value()),
            "version 3");
}

/// An empty directory for a durable session's files.
std::string FreshSessionDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<apps::KeaSession> SmallSession(int machines) {
  apps::KeaSession::Config config;
  config.machines = machines;
  config.seed = 5;
  return std::move(apps::KeaSession::Create(config)).value();
}

// A name whose generation suffix does not fit a u64 is not a generation:
// List skips it, and Checkpoint and Resume run beside it and leave it in
// place. Parsing the suffix used to throw out of every durable call.
TEST_F(GenerationsTest, OutOfRangeSuffixIsNotAGeneration) {
  const std::string dir = FreshSessionDir("sf_gen_stray");
  const std::string checkpoint = dir + "/checkpoint.kea";
  const std::string stray = checkpoint + ".g123456789012345678901";
  RawWrite(stray, "not a generation");
  EXPECT_TRUE(SnapshotGenerations::List(checkpoint).empty());

  auto session = SmallSession(8);
  ASSERT_TRUE(session->EnableDurability(dir).ok());
  ASSERT_TRUE(session->Simulate(2).ok());
  ASSERT_TRUE(session->Checkpoint().ok());
  EXPECT_EQ(SnapshotGenerations::List(checkpoint),
            (std::vector<uint64_t>{1, 2}));
  auto resumed = apps::KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->store().size(), session->store().size());
  EXPECT_EQ(RawRead(stray), "not a generation");
}

// Every single-bit flip of a two-frame telemetry segment is caught. Resume
// either refuses with a typed error, or restores exactly the records of the
// generation it admitted — a prefix of the reference, never a changed
// record.
TEST_F(StorageFaultTest, SegmentDetectsEverySingleBitCorruption) {
  const std::string dir = FreshSessionDir("sf_segment_every_bit");
  const std::string segment = dir + "/telemetry.kea";
  std::string reference;
  // Record counts the live checkpoint and the generations cover, newest first.
  std::vector<size_t> covered;
  {
    auto session = SmallSession(1);
    ASSERT_TRUE(session->EnableDurability(dir).ok());  // Covers 0 records.
    covered.insert(covered.begin(), 0);
    for (int frame = 0; frame < 2; ++frame) {
      ASSERT_TRUE(session->Simulate(1).ok());  // Appends one frame.
      covered.insert(covered.begin(), session->store().size());
    }
    reference = session->store().SerializeState();
  }
  const std::string valid = RawRead(segment);
  ASSERT_EQ(valid.size(), 8 + 2 * 16 + reference.size() - 8);

  for (size_t byte = 0; byte < valid.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                   std::to_string(bit));
      std::string bad = valid;
      bad[byte] ^= static_cast<char>(1u << bit);
      RawWrite(segment, bad);
      auto resumed = apps::KeaSession::Resume(dir);
      if (!resumed.ok()) {
        EXPECT_NE(resumed.status().code(), StatusCode::kAborted);
        EXPECT_FALSE(resumed.status().message().empty());
        continue;
      }
      const size_t discarded = (*resumed)->resume_generations_discarded();
      ASSERT_LT(discarded, covered.size());
      const std::string restored = (*resumed)->store().SerializeState();
      ASSERT_EQ((*resumed)->store().size(), covered[discarded]);
      EXPECT_EQ(restored.substr(8), reference.substr(8, restored.size() - 8));
    }
  }
  RawWrite(segment, valid);
}

TEST_F(StorageFaultTest, RecordingEnumeratesTheSweepSpace) {
  const std::string path = TempPath("sf_recording.txt");
  StorageFaultInjector injector(StorageFaultProfile::None());
  Io::Get().SetFaultInjector(&injector);
  injector.SetRecording(true);
  EXPECT_TRUE(Io::Get().WriteFile(path, "a").ok());       // write + flush
  EXPECT_TRUE(Io::Get().AppendFile(path, "b").ok());      // write + flush
  EXPECT_TRUE(Io::Get().ReadFile(path).ok());             // read
  EXPECT_TRUE(Io::Get().Rename(path, path + ".r").ok());  // rename
  injector.SetRecording(false);

  std::map<std::string, int> reached;
  for (const auto& [op, hits] : injector.Reached()) reached[op] = hits;
  EXPECT_EQ(reached["write"], 2);
  EXPECT_EQ(reached["flush"], 2);
  EXPECT_EQ(reached["read"], 1);
  EXPECT_EQ(reached["rename"], 1);
  std::remove((path + ".r").c_str());
}

TEST_F(StorageFaultTest, IsStorageFailureClassifies) {
  EXPECT_TRUE(IsStorageFailure(Status::Unavailable("storage: injected eio")));
  EXPECT_TRUE(IsStorageFailure(Status::Internal("storage: rename failed")));
  // Crash points are process death, not a storage failure.
  EXPECT_FALSE(IsStorageFailure(Status::Aborted("storage: crash here")));
  // Domain errors without the seam's prefix are not storage failures.
  EXPECT_FALSE(IsStorageFailure(Status::Internal("model fit diverged")));
  EXPECT_FALSE(IsStorageFailure(Status::OK()));
}

}  // namespace
}  // namespace kea
