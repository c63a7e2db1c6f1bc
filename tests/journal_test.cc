#include "common/journal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/crash_point.h"
#include "common/snapshot.h"
#include "core/deployment_ledger.h"

namespace kea {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  return std::move(ReadFileToString(path)).value();
}

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class JournalTest : public testing::Test {
 protected:
  void TearDown() override { CrashPoints::Reset(); }
};

TEST_F(JournalTest, AppendAndReplay) {
  const std::string path = TempPath("journal_basic.kea");
  std::remove(path.c_str());
  {
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_TRUE(journal->Append("alpha").ok());
    ASSERT_TRUE(journal->Append(std::string("bin\0ary", 7)).ok());
    ASSERT_TRUE(journal->Append("").ok());
  }
  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_EQ(journal->size(), 3u);
  EXPECT_EQ(journal->records()[0], "alpha");
  EXPECT_EQ(journal->records()[1], std::string("bin\0ary", 7));
  EXPECT_EQ(journal->records()[2], "");
  EXPECT_FALSE(journal->recovery().tail_truncated);
  std::remove(path.c_str());
}

TEST_F(JournalTest, RejectsForeignFile) {
  const std::string path = TempPath("journal_foreign.kea");
  WriteRaw(path, "definitely not a journal");
  EXPECT_EQ(Journal::Open(path).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(JournalTest, TornTailIsDroppedNotMisparsed) {
  const std::string path = TempPath("journal_torn.kea");
  std::remove(path.c_str());
  {
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_TRUE(journal->Append("keep me").ok());
    ASSERT_TRUE(journal->Append("whole second record").ok());
  }
  const std::string intact = ReadAll(path);
  // Chop the file mid-way through the last record, at every possible offset:
  // recovery must always keep the first record and never fabricate a second.
  // (A cut exactly at first_end is a clean one-record journal, not a tear.)
  const size_t first_end = 8 + 8 + 7;  // magic + header + "keep me".
  for (size_t cut = first_end + 1; cut < intact.size(); ++cut) {
    WriteRaw(path, intact.substr(0, cut));
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_EQ(journal->size(), 1u) << "cut at byte " << cut;
    EXPECT_EQ(journal->records()[0], "keep me");
    EXPECT_TRUE(journal->recovery().tail_truncated);
    EXPECT_EQ(journal->recovery().dropped_bytes, cut - first_end);
    // Recovery truncated the torn bytes physically, and the journal stays
    // appendable: the repaired file replays clean with the new record last.
    ASSERT_TRUE(journal->Append("after recovery").ok());
    auto reopened = std::move(Journal::Open(path)).value();
    ASSERT_EQ(reopened->size(), 2u);
    EXPECT_EQ(reopened->records()[1], "after recovery");
    EXPECT_FALSE(reopened->recovery().tail_truncated);
  }
  std::remove(path.c_str());
}

TEST_F(JournalTest, CorruptedPayloadFailsCrc) {
  const std::string path = TempPath("journal_crc.kea");
  std::remove(path.c_str());
  {
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_TRUE(journal->Append("first").ok());
    ASSERT_TRUE(journal->Append("second").ok());
  }
  std::string bytes = ReadAll(path);
  bytes[bytes.size() - 1] ^= 0x40;  // Flip a bit in the last payload byte.
  WriteRaw(path, bytes);
  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_EQ(journal->size(), 1u);
  EXPECT_EQ(journal->records()[0], "first");
  EXPECT_TRUE(journal->recovery().tail_truncated);
  std::remove(path.c_str());
}

TEST_F(JournalTest, InjectedTornAppendRecoversOnReopen) {
  const std::string path = TempPath("journal_torn_inject.kea");
  std::remove(path.c_str());
  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_TRUE(journal->Append("durable").ok());
  CrashPoints::Arm("journal.append.torn");
  Status crash = journal->Append("never fully written");
  ASSERT_TRUE(CrashPoints::IsCrash(crash)) << crash;
  journal.reset();  // The "process" dies with a half-written record on disk.

  auto recovered = std::move(Journal::Open(path)).value();
  ASSERT_EQ(recovered->size(), 1u);
  EXPECT_EQ(recovered->records()[0], "durable");
  EXPECT_TRUE(recovered->recovery().tail_truncated);
  EXPECT_GT(recovered->recovery().dropped_bytes, 0u);
  std::remove(path.c_str());
}

TEST_F(JournalTest, MultiRecordTornTailKeepsEveryEarlierRecord) {
  const std::string path = TempPath("journal_multi_torn.kea");
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  const std::vector<std::string> payloads = {"zero", "one records",
                                             "two is the last whole one",
                                             "three never lands"};
  {
    auto journal = std::move(Journal::Open(path)).value();
    for (const std::string& p : payloads) ASSERT_TRUE(journal->Append(p).ok());
  }
  const std::string intact = ReadAll(path);
  // Record boundaries: magic, then [8-byte header + payload] each.
  std::vector<size_t> ends = {8};
  for (const std::string& p : payloads) ends.push_back(ends.back() + 8 + p.size());

  // Tear the file mid-way through every record in turn: recovery keeps the
  // whole prefix of earlier records — never fewer, never a fabricated one.
  for (size_t victim = 0; victim < payloads.size(); ++victim) {
    const size_t cut = (ends[victim] + ends[victim + 1]) / 2;
    WriteRaw(path, intact.substr(0, cut));
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_EQ(journal->size(), victim) << "tear inside record " << victim;
    for (size_t i = 0; i < victim; ++i) {
      EXPECT_EQ(journal->records()[i], payloads[i]);
    }
    EXPECT_TRUE(journal->recovery().tail_truncated);
    EXPECT_EQ(journal->recovery().dropped_bytes, cut - ends[victim]);
  }
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST_F(JournalTest, MidFileCrcMismatchQuarantinesEverythingAfter) {
  const std::string path = TempPath("journal_midfile_crc.kea");
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
  {
    auto journal = std::move(Journal::Open(path)).value();
    ASSERT_TRUE(journal->Append("survivor").ok());
    ASSERT_TRUE(journal->Append("rotted").ok());
    ASSERT_TRUE(journal->Append("intact but unreachable").ok());
  }
  const std::string intact = ReadAll(path);
  // Flip one payload bit of the MIDDLE record. The records after it are
  // byte-perfect on disk, but a record stream is only trustworthy as a
  // prefix: resynchronizing past a corrupt record could misparse payload
  // bytes as headers, so everything after the damage is quarantined.
  const size_t r1_payload = 8 + (8 + 8) + 8;  // magic, record 0, r1 header.
  std::string bytes = intact;
  bytes[r1_payload + 2] ^= 0x08;
  WriteRaw(path, bytes);

  auto journal = std::move(Journal::Open(path)).value();
  ASSERT_EQ(journal->size(), 1u);
  EXPECT_EQ(journal->records()[0], "survivor");
  EXPECT_TRUE(journal->recovery().tail_truncated);
  EXPECT_EQ(journal->recovery().dropped_bytes, bytes.size() - (8 + 16));
  // The quarantine holds the damaged record AND the intact-but-unreachable
  // one — evidence is preserved even when it cannot be trusted...
  EXPECT_EQ(ReadAll(journal->recovery().quarantine_path),
            bytes.substr(8 + 16));
  // ...and the repaired journal never resurrects the unreachable record.
  auto reopened = std::move(Journal::Open(path)).value();
  ASSERT_EQ(reopened->size(), 1u);
  EXPECT_FALSE(reopened->recovery().tail_truncated);
  std::remove(path.c_str());
  std::remove((path + ".quarantine").c_str());
}

TEST_F(JournalTest, AtomicWriteCrashLeavesOldFileIntact) {
  const std::string path = TempPath("atomic_write.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents").ok());
  CrashPoints::Arm("atomic_write.before_rename");
  Status crash = AtomicWriteFile(path, "new contents");
  ASSERT_TRUE(CrashPoints::IsCrash(crash));
  EXPECT_EQ(ReadAll(path), "old contents");
  // Disarmed after firing: the retry goes through.
  ASSERT_TRUE(AtomicWriteFile(path, "new contents").ok());
  EXPECT_EQ(ReadAll(path), "new contents");
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(SnapshotTest, RoundTripsSections) {
  const std::string path = TempPath("snapshot_basic.kea");
  SnapshotWriter writer;
  writer.AddSection("alpha", "first section");
  writer.AddSection("binary", std::string("\0\x01\x02", 3));
  writer.AddSection("empty", "");
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = std::move(SnapshotReader::Open(path)).value();
  EXPECT_TRUE(reader.Has("alpha"));
  EXPECT_FALSE(reader.Has("missing"));
  EXPECT_EQ(std::move(reader.Section("alpha")).value(), "first section");
  EXPECT_EQ(std::move(reader.Section("binary")).value(), std::string("\0\x01\x02", 3));
  EXPECT_EQ(std::move(reader.Section("empty")).value(), "");
  EXPECT_EQ(reader.Section("missing").status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(SnapshotTest, RejectsAnyCorruptionWhole) {
  const std::string path = TempPath("snapshot_corrupt.kea");
  SnapshotWriter writer;
  writer.AddSection("a", "aaaa");
  writer.AddSection("b", "bbbb");
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const std::string intact = ReadAll(path);

  // Truncation at every byte offset: all-or-nothing, never a partial read.
  for (size_t cut = 0; cut < intact.size(); ++cut) {
    WriteRaw(path, intact.substr(0, cut));
    EXPECT_EQ(SnapshotReader::Open(path).status().code(),
              StatusCode::kInvalidArgument)
        << "cut at byte " << cut;
  }
  // A single flipped content bit fails that section's CRC.
  std::string bytes = intact;
  bytes[bytes.size() - 1] ^= 0x01;
  WriteRaw(path, bytes);
  EXPECT_EQ(SnapshotReader::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StateCodecTest, RoundTripsEveryType) {
  StateWriter w;
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI64(-42);
  w.PutInt(-7);
  w.PutBool(true);
  w.PutDouble(-0.1);  // Not exactly representable: bit pattern must survive.
  w.PutString("hello\0world");

  const std::string blob = w.Release();
  StateReader r(blob);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  int i = 0;
  bool b = false;
  double d = 0;
  std::string s;
  r(u32, u64, i64, i, b, d, s);
  ASSERT_TRUE(r.Finish().ok()) << r.Finish();
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(b);
  EXPECT_EQ(d, -0.1);
  EXPECT_EQ(s, "hello");  // C-string literal stops at the NUL.
  EXPECT_TRUE(r.AtEnd());
}

TEST(StateCodecTest, TruncatedBlobNeverFabricates) {
  StateWriter w;
  w.PutU64(99);
  w.PutString("payload");
  w.PutDouble(3.25);
  const std::string full = w.Release();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string torn = full.substr(0, cut);
    StateReader r(torn);
    uint64_t u = 0;
    std::string s;
    double d = 0;
    r(u, s, d);
    EXPECT_EQ(r.Finish().code(), StatusCode::kInvalidArgument)
        << "cut at byte " << cut;
  }
}

// Byte layout of every StateWriter put. Journals, ledgers and checkpoints
// written before the writer appended whole words must still read, so these
// bytes are fixed: little-endian, doubles as raw IEEE-754 bits.
TEST(StateCodecTest, GoldenBytes) {
  auto bytes = [](auto put) {
    StateWriter w;
    put(&w);
    return w.Release();
  };
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutU32(0x04030201u); }),
            std::string("\x01\x02\x03\x04", 4));
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutU32(0xfedcba98u); }),
            std::string("\x98\xba\xdc\xfe", 4));
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutU64(0x0807060504030201ULL); }),
            std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutI64(-1); }),
            std::string(8, '\xff'));
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutDouble(-0.0); }),
            std::string("\0\0\0\0\0\0\0\x80", 8));
  EXPECT_EQ(bytes([](StateWriter* w) {
              w->PutDouble(std::numeric_limits<double>::quiet_NaN());
            }),
            std::string("\0\0\0\0\0\0\xf8\x7f", 8));
  EXPECT_EQ(bytes([](StateWriter* w) { w->PutString(std::string("a\0b", 3)); }),
            std::string("\x03\0\0\0a\0b", 7));
  EXPECT_EQ(bytes([](StateWriter* w) {
              w->PutU32(1);
              w->PutU64(2);
            }),
            std::string("\x01\0\0\0\x02\0\0\0\0\0\0\0", 12));
}

// Reference CRC-32 (reflected IEEE polynomial) with no tables: one byte at
// a time, bit by bit. The table-driven Crc32Extend must reproduce it exactly.
uint32_t ReferenceCrc32Extend(uint32_t crc, const char* data, size_t size) {
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    c ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::string RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng() & 0xff);
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  const std::string buffer = RandomBytes(8 + 256, 13);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const char* p = buffer.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32Extend(0, p, len))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(Crc32Extend(0x9e3779b9u, p, len),
                ReferenceCrc32Extend(0x9e3779b9u, p, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Every byte value, high bit set or not, in every position of a word.
  std::string all(256, '\0');
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<char>(i);
  for (size_t offset = 0; offset < 8; ++offset) {
    EXPECT_EQ(Crc32(all.data() + offset, all.size() - offset),
              ReferenceCrc32Extend(0, all.data() + offset, all.size() - offset));
  }
}

TEST(Crc32Test, ChainingAtEverySplitPointEqualsOneCall) {
  const std::string data = RandomBytes(256, 29);
  const uint32_t whole = Crc32(data);
  ASSERT_EQ(whole, ReferenceCrc32Extend(0, data.data(), data.size()));
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32Extend(Crc32(data.data(), split), data.data() + split,
                          data.size() - split),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, CombineAtEverySplitPointEqualsOneCall) {
  const std::string data = RandomBytes(256, 31);
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(Crc32Combine(Crc32(data.data(), split),
                           Crc32(data.data() + split, data.size() - split),
                           data.size() - split),
              whole)
        << "split at " << split;
  }
  // A long second part exercises the high bits of its length.
  const std::string tail = RandomBytes((1 << 20) + 13, 37);
  EXPECT_EQ(Crc32Combine(Crc32(data), Crc32(tail), tail.size()),
            Crc32Extend(whole, tail));
}

TEST(DeploymentLedgerTest, AppendIsIdempotentByKey) {
  const std::string path = TempPath("ledger_idempotent.kea");
  std::remove(path.c_str());
  auto ledger = std::move(core::DeploymentLedger::Open(path)).value();
  auto first = ledger->Append(core::DeploymentLedger::EventType::kWaveStarted,
                              "r0/w0/started", "payload-a");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->seq, 0u);

  // Same key again: no new event, the original payload wins.
  auto replay = ledger->Append(core::DeploymentLedger::EventType::kWaveStarted,
                               "r0/w0/started", "payload-DIFFERENT");
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ((*replay)->seq, 0u);
  EXPECT_EQ((*replay)->payload, "payload-a");
  EXPECT_EQ(ledger->next_seq(), 1u);

  ASSERT_TRUE(ledger
                  ->Append(core::DeploymentLedger::EventType::kWaveApplied,
                           "r0/w0/applied", "payload-b")
                  .ok());
  EXPECT_EQ(ledger->next_seq(), 2u);
  std::remove(path.c_str());
}

TEST(DeploymentLedgerTest, ReplaysAcrossReopen) {
  const std::string path = TempPath("ledger_reopen.kea");
  std::remove(path.c_str());
  {
    auto ledger = std::move(core::DeploymentLedger::Open(path)).value();
    ASSERT_TRUE(ledger
                    ->Append(core::DeploymentLedger::EventType::kRoundStarted,
                             "round/0/started", "plan")
                    .ok());
    ASSERT_TRUE(ledger
                    ->Append(core::DeploymentLedger::EventType::kRollback,
                             "r0/rollback", "restore-all")
                    .ok());
  }
  auto ledger = std::move(core::DeploymentLedger::Open(path)).value();
  ASSERT_EQ(ledger->events().size(), 2u);
  EXPECT_EQ(ledger->events()[0].type,
            core::DeploymentLedger::EventType::kRoundStarted);
  EXPECT_EQ(ledger->events()[1].key, "r0/rollback");
  EXPECT_EQ(ledger->events()[1].payload, "restore-all");
  ASSERT_NE(ledger->Find("round/0/started"), nullptr);
  EXPECT_EQ(ledger->Find("round/0/started")->seq, 0u);
  EXPECT_EQ(ledger->Find("missing"), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kea
