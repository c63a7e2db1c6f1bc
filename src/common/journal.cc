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

Status CheckFrameLength(const std::string& payload) {
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes does not fit a u32 length");
  }
  return Status::OK();
}

// `payload` behind its header; `crc` is the payload's CRC-32.
std::string Frame(const std::string& payload, uint32_t crc) {
  std::string framed;
  framed.reserve(kFrameHeaderBytes + payload.size());
  StoreU32(static_cast<uint32_t>(payload.size()), &framed);
  StoreU32(crc, &framed);
  framed += payload;
  return framed;
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

// Shared record scan for Open() and Scrub(): the intact records of `data`
// plus the byte offset where the valid prefix ends — anything beyond that
// point is corrupt tail.
struct JournalScan {
  std::vector<std::string> records;
  size_t good_end = kFrameMagicBytes;
};

Status ScanJournal(const std::string& data, const std::string& path,
                   JournalScan* out) {
  if (data.size() < kFrameMagicBytes ||
      std::memcmp(data.data(), kMagic, kFrameMagicBytes) != 0) {
    return Status::InvalidArgument("not a KEA journal: " + path);
  }
  out->good_end = ScanFrames(data, [out](const char* payload, size_t size) {
    out->records.emplace_back(payload, size);
    return true;
  });
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

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t length_b) {
  // Appending B to A shifts A's CRC register through length_b * 8 zero bits
  // — multiplication by x^(8 length_b) modulo the polynomial — and XORs in
  // B's own CRC. Polynomials are bit-reflected: x^0 is the top bit.
  auto mult_mod_p = [](uint32_t a, uint32_t b) {
    uint32_t product = 0;
    for (uint32_t m = 1u << 31; m != 0 && a != 0; m >>= 1) {
      if (a & m) {
        product ^= b;
        a ^= m;
      }
      b = (b & 1) ? (b >> 1) ^ 0xedb88320u : b >> 1;
    }
    return product;
  };
  uint32_t shift = 1u << 31;    // x^0
  uint32_t square = 1u << 23;   // x^8: one zero byte.
  for (uint64_t n = length_b; n != 0; n >>= 1) {
    if (n & 1) shift = mult_mod_p(square, shift);
    square = mult_mod_p(square, square);
  }
  return mult_mod_p(shift, crc_a) ^ crc_b;
}

StatusOr<std::string> EncodeFrame(const std::string& payload) {
  KEA_RETURN_IF_ERROR(CheckFrameLength(payload));
  return Frame(payload, Crc32(payload));
}

Status AppendFrame(const std::string& path, const std::string& payload,
                   const std::string& torn_point, uint32_t* payload_crc) {
  KEA_RETURN_IF_ERROR(CheckFrameLength(payload));
  const uint32_t crc = Crc32(payload);
  if (payload_crc != nullptr) *payload_crc = crc;
  const std::string framed = Frame(payload, crc);
  // Injected torn write: persist the header plus half the payload — a
  // realistic power-loss artifact — then fail. Recovery must drop exactly
  // these bytes and keep every earlier frame. Written directly (not via Io):
  // this models a process dying mid-write, not an I/O error the seam should
  // see.
  Status torn = CrashPoints::Check(torn_point);
  if (!torn.ok()) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    const size_t partial = kFrameHeaderBytes + payload.size() / 2;
    out.write(framed.data(), static_cast<std::streamsize>(partial));
    out.flush();
    return torn;
  }
  return Io::Get().AppendFile(path, framed);
}

size_t ScanFrames(const std::string& data,
                  const std::function<bool(const char*, size_t)>& visit) {
  size_t pos = kFrameMagicBytes;
  while (data.size() - pos >= kFrameHeaderBytes) {  // Else a torn header.
    const uint32_t len = LoadU32(data.data() + pos);
    const uint32_t crc = LoadU32(data.data() + pos + 4);
    const char* payload = data.data() + pos + kFrameHeaderBytes;
    if (data.size() - pos - kFrameHeaderBytes < len) break;  // Torn payload.
    if (Crc32(payload, len) != crc) break;                   // Bit rot.
    if (!visit(payload, len)) break;
    pos += kFrameHeaderBytes + len;
  }
  return pos;
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
    KEA_RETURN_IF_ERROR(
        Io::Get().WriteFile(path, std::string(kMagic, kFrameMagicBytes)));
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
  const auto start = std::chrono::steady_clock::now();
  KEA_RETURN_IF_ERROR(AppendFrame(path_, payload, "journal.append.torn"));
  records_.push_back(payload);
  AppendsCounter()->Increment();
  AppendBytesCounter()->Increment(kFrameHeaderBytes + payload.size());
  if (obs::MetricsEnabled()) {
    AppendLatencyHistogram()->Observe(ElapsedUsSince(start));
  }
  return Status::OK();
}

}  // namespace kea
