#ifndef KEA_COMMON_JOURNAL_H_
#define KEA_COMMON_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace kea {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte buffer. Used to
/// detect torn or bit-rotted journal records and snapshot sections.
uint32_t Crc32(const char* data, size_t size);
inline uint32_t Crc32(const std::string& s) { return Crc32(s.data(), s.size()); }

/// Incremental CRC-32: extends `crc` (a previous Crc32/Crc32Extend result,
/// or 0 for an empty prefix) with more bytes, without concatenating buffers.
uint32_t Crc32Extend(uint32_t crc, const char* data, size_t size);
inline uint32_t Crc32Extend(uint32_t crc, const std::string& s) {
  return Crc32Extend(crc, s.data(), s.size());
}

/// CRC-32 of A followed by B, from `crc_a` = Crc32(A), `crc_b` = Crc32(B)
/// and B's length, without reading either (zlib's crc32_combine).
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t length_b);

/// Crash-safe whole-file replacement: the content is written to
/// `<path>.tmp`, flushed, and renamed over `path` — all through the
/// `common::Io` seam, so injected storage faults and bounded retries apply.
/// A crash (or injected failure) at any point leaves either the old file or
/// the new one — never a truncated hybrid — and every error path removes
/// the temp file, so a live process never strands `<path>.tmp`. Crash
/// point: "atomic_write.before_rename" (a simulated process death, which
/// deliberately leaves the orphan temp a real crash would).
Status AtomicWriteFile(const std::string& path, const std::string& content);

/// Reads a whole file into a string via the `common::Io` seam. NotFound
/// when it cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

/// The framed-file layout shared by the ledger's journal and the telemetry
/// segment: an 8-byte magic, then frames
/// `[u32 payload_len][u32 crc32(payload)][payload bytes]`, little-endian.
inline constexpr size_t kFrameMagicBytes = 8;
inline constexpr size_t kFrameHeaderBytes = 8;

/// `payload` behind its frame header. InvalidArgument when the payload's
/// size does not fit the u32 length.
StatusOr<std::string> EncodeFrame(const std::string& payload);

/// Appends one frame of `payload` to the framed file at `path` through the
/// Io seam and flushes it. Crash point `torn_point` instead persists the
/// header plus half the payload — a process dying mid-write — and fails.
/// `payload_crc`, when set, receives the payload's CRC-32 (the header's).
Status AppendFrame(const std::string& path, const std::string& payload,
                   const std::string& torn_point,
                   uint32_t* payload_crc = nullptr);

/// Calls `visit(payload, size)` for each intact frame of `data` after its
/// magic, in order, and returns the offset where the intact prefix ends. A
/// short header, a length past the end, a CRC mismatch, or `visit`
/// returning false ends the prefix. `data` must hold at least the magic.
size_t ScanFrames(const std::string& data,
                  const std::function<bool(const char*, size_t)>& visit);

/// An append-only, length-prefixed, CRC-checked record log — the write-ahead
/// journal under the deployment ledger. On-disk layout: magic "KEAJNL01",
/// then one frame per record (see kFrameMagicBytes).
///
/// Open() replays existing records and recovers from a torn tail: a final
/// record with a short header, a length pointing past EOF, or a CRC mismatch
/// is detected, dropped, and physically truncated — it is never misparsed,
/// and no earlier record is lost. The dropped bytes are quarantined to
/// `<path>.quarantine` for post-mortems before the file is repaired.
/// Append() flushes each record before returning, so everything appended
/// before a crash is replayed after it.
class Journal {
 public:
  struct RecoveryInfo {
    size_t records = 0;        ///< Intact records replayed at Open().
    bool tail_truncated = false;
    size_t dropped_bytes = 0;  ///< Bytes of torn tail discarded.
    std::string quarantine_path;  ///< Where the dropped tail was preserved.
  };

  /// Offline integrity report from Scrub().
  struct ScrubReport {
    size_t records = 0;           ///< Intact records found.
    size_t corrupt_bytes = 0;     ///< Bytes past the valid prefix.
    bool repaired = false;        ///< File rewritten to the valid prefix.
    std::string quarantine_path;  ///< Set when corrupt bytes were preserved.
  };

  /// Opens (creating if absent) the journal at `path` and replays it.
  /// Returns InvalidArgument when the file exists but is not a KEA journal.
  static StatusOr<std::unique_ptr<Journal>> Open(const std::string& path);

  /// CRC-verifies every record of the journal at `path` without opening it
  /// for appends. With `repair` set, salvages the valid prefix in place:
  /// the corrupt tail is quarantined to `<path>.quarantine` and the file is
  /// atomically rewritten to end at the last intact record. A mid-file CRC
  /// mismatch is treated as the start of the corrupt tail — everything
  /// after it is quarantined, and no record is ever fabricated or altered.
  static StatusOr<ScrubReport> Scrub(const std::string& path,
                                     bool repair = true);

  /// Appends one record and flushes it to the OS. Crash point
  /// "journal.append.torn" writes a deliberately torn prefix of the record
  /// (header plus half the payload) before failing, to exercise recovery.
  Status Append(const std::string& payload);

  /// All records, in append order (replayed ones first).
  const std::vector<std::string>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  const RecoveryInfo& recovery() const { return recovery_; }
  const std::string& path() const { return path_; }

 private:
  Journal(std::string path, std::vector<std::string> records, RecoveryInfo info)
      : path_(std::move(path)), records_(std::move(records)), recovery_(info) {}

  std::string path_;
  std::vector<std::string> records_;
  RecoveryInfo recovery_;
};

}  // namespace kea

#endif  // KEA_COMMON_JOURNAL_H_
