#include "common/journal.h"

#include <array>
#include <chrono>
#include <cstring>
#include <fstream>

#include "common/crash_point.h"
#include "common/io.h"
#include "obs/metrics.h"

namespace kea {
namespace {

// Deterministic counters: appends/bytes are logical-event totals (the
// journaled paths are single-threaded by design). Latency histograms are
// kTiming and excluded from deterministic exports.
obs::Counter* AppendsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("journal.appends");
  return c;
}
obs::Counter* AppendBytesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("journal.append_bytes");
  return c;
}
obs::Counter* TornTailsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("journal.torn_tails_recovered");
  return c;
}
obs::Counter* ScrubRepairsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.scrub_repairs");
  return c;
}
obs::Histogram* AppendLatencyHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "journal.append_us", "", obs::LatencyBucketsUs(), obs::Kind::kTiming);
  return h;
}
obs::Counter* AtomicWritesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("atomic_write.files");
  return c;
}
obs::Counter* AtomicWriteBytesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("atomic_write.bytes");
  return c;
}
obs::Histogram* AtomicWriteLatencyHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "atomic_write.write_us", "", obs::LatencyBucketsUs(),
      obs::Kind::kTiming);
  return h;
}

double ElapsedUsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr char kMagic[] = "KEAJNL01";
constexpr size_t kMagicLen = 8;
constexpr size_t kHeaderLen = 8;  // u32 length + u32 crc.

uint32_t LoadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void StoreU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

// Slice-by-8 tables: table[0] is the classic bytewise table, and table[k][b]
// is the CRC of byte b followed by k zero bytes, so eight table lookups
// advance the CRC over eight input bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

const CrcTables& Crc32Tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  return tables;
}

// Shared record scan for Open() and Scrub(): walks `data` (which must start
// with the magic) and returns the intact records plus the byte offset where
// the valid prefix ends. A short header, a length past EOF, or a CRC
// mismatch stops the scan — anything beyond that point is corrupt tail.
struct JournalScan {
  std::vector<std::string> records;
  size_t good_end = kMagicLen;
};

Status ScanJournal(const std::string& data, const std::string& path,
                   JournalScan* out) {
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("not a KEA journal: " + path);
  }
  size_t pos = kMagicLen;
  while (pos < data.size()) {
    if (data.size() - pos < kHeaderLen) break;  // Torn header.
    const uint32_t len = LoadU32(data.data() + pos);
    const uint32_t crc = LoadU32(data.data() + pos + 4);
    if (data.size() - pos - kHeaderLen < len) break;  // Torn payload.
    if (Crc32(data.data() + pos + kHeaderLen, len) != crc) break;  // Bit rot.
    out->records.emplace_back(data.data() + pos + kHeaderLen, len);
    pos += kHeaderLen + len;
    out->good_end = pos;
  }
  return Status::OK();
}

// Preserves the corrupt tail for post-mortems. Best-effort and deliberately
// NOT routed through the Io seam: a broken disk must not be able to block
// the salvage that follows.
std::string QuarantineTail(const std::string& path, const std::string& data,
                           size_t good_end) {
  const std::string qpath = path + ".quarantine";
  std::ofstream out(qpath, std::ios::binary | std::ios::trunc);
  if (out.is_open()) {
    out.write(data.data() + good_end,
              static_cast<std::streamsize>(data.size() - good_end));
    out.flush();
  }
  return qpath;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const char* data, size_t size) {
  const CrcTables& t = Crc32Tables();
  uint32_t c = crc ^ 0xffffffffu;
  size_t i = 0;
  for (; size - i >= 8; i += 8) {
    // The tables take the bytes in stream order: LoadU32 reads them as a
    // little-endian word whatever the host's byte order.
    const uint32_t lo = c ^ LoadU32(data + i);
    const uint32_t hi = LoadU32(data + i + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; i < size; ++i) {
    c = t[0][(c ^ static_cast<unsigned char>(data[i])) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(const char* data, size_t size) {
  return Crc32Extend(0, data, size);
}

Status AtomicWriteFile(const std::string& path, const std::string& content) {
  const auto start = std::chrono::steady_clock::now();
  const std::string tmp = path + ".tmp";
  Status written = Io::Get().WriteFile(tmp, content);
  if (!written.ok()) {
    // Never strand a temp file on a live error path (a short write may have
    // persisted a torn prefix). The removal is injection-proof by design.
    Io::Get().RemoveFile(tmp);
    return written;
  }
  // A crash here leaves the old `path` intact and only an orphan .tmp behind
  // — that is the process-death model, where no cleanup can run.
  KEA_CRASH_POINT("atomic_write.before_rename");
  Status renamed = Io::Get().Rename(tmp, path);
  if (!renamed.ok()) {
    Io::Get().RemoveFile(tmp);
    return renamed;
  }
  AtomicWritesCounter()->Increment();
  AtomicWriteBytesCounter()->Increment(content.size());
  if (obs::MetricsEnabled()) {
    AtomicWriteLatencyHistogram()->Observe(ElapsedUsSince(start));
  }
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  return Io::Get().ReadFile(path);
}

StatusOr<std::unique_ptr<Journal>> Journal::Open(const std::string& path) {
  RecoveryInfo info;
  std::string data;
  bool exists = false;
  {
    auto read = ReadFileToString(path);
    if (read.ok()) {
      exists = true;
      data = std::move(read).value();
    } else if (read.status().code() != StatusCode::kNotFound) {
      return read.status();
    }
  }

  JournalScan scan;
  if (exists && !data.empty()) {
    KEA_RETURN_IF_ERROR(ScanJournal(data, path, &scan));
    info.records = scan.records.size();
    if (scan.good_end < data.size()) {
      info.tail_truncated = true;
      info.dropped_bytes = data.size() - scan.good_end;
    }
  }

  if (!exists || data.empty()) {
    // Fresh journal: write the magic via truncation.
    KEA_RETURN_IF_ERROR(Io::Get().WriteFile(path, std::string(kMagic, kMagicLen)));
    return std::unique_ptr<Journal>(
        new Journal(path, std::vector<std::string>(), info));
  }

  if (info.tail_truncated) {
    TornTailsCounter()->Increment();
    ScrubRepairsCounter()->Increment();
    // Physically drop the torn tail so the next append starts at a record
    // boundary — but preserve the dropped bytes first: salvage must never
    // silently destroy evidence.
    info.quarantine_path = QuarantineTail(path, data, scan.good_end);
    KEA_RETURN_IF_ERROR(AtomicWriteFile(path, data.substr(0, scan.good_end)));
  }
  return std::unique_ptr<Journal>(
      new Journal(path, std::move(scan.records), info));
}

StatusOr<Journal::ScrubReport> Journal::Scrub(const std::string& path,
                                              bool repair) {
  ScrubReport report;
  std::string data;
  KEA_ASSIGN_OR_RETURN(data, ReadFileToString(path));
  JournalScan scan;
  KEA_RETURN_IF_ERROR(ScanJournal(data, path, &scan));
  report.records = scan.records.size();
  if (scan.good_end >= data.size()) return report;  // Clean.

  report.corrupt_bytes = data.size() - scan.good_end;
  if (repair) {
    report.quarantine_path = QuarantineTail(path, data, scan.good_end);
    KEA_RETURN_IF_ERROR(AtomicWriteFile(path, data.substr(0, scan.good_end)));
    report.repaired = true;
    ScrubRepairsCounter()->Increment();
  }
  return report;
}

Status Journal::Append(const std::string& payload) {
  std::string framed;
  framed.reserve(kHeaderLen + payload.size());
  StoreU32(static_cast<uint32_t>(payload.size()), &framed);
  StoreU32(Crc32(payload), &framed);
  framed += payload;

  // Injected torn write: persist the header plus half the payload — a
  // realistic power-loss artifact — then fail. Recovery at the next Open()
  // must drop exactly these bytes and keep every earlier record. Written
  // directly (not via Io): this models a process dying mid-write, not an
  // I/O error the seam should see.
  Status torn = CrashPoints::Check("journal.append.torn");
  if (!torn.ok()) {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    const size_t partial = kHeaderLen + payload.size() / 2;
    out.write(framed.data(), static_cast<std::streamsize>(partial));
    out.flush();
    return torn;
  }

  const auto start = std::chrono::steady_clock::now();
  KEA_RETURN_IF_ERROR(Io::Get().AppendFile(path_, framed));
  records_.push_back(payload);
  AppendsCounter()->Increment();
  AppendBytesCounter()->Increment(framed.size());
  if (obs::MetricsEnabled()) {
    AppendLatencyHistogram()->Observe(ElapsedUsSince(start));
  }
  return Status::OK();
}

}  // namespace kea
