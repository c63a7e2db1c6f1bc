#ifndef KEA_COMMON_SNAPSHOT_H_
#define KEA_COMMON_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace kea {

/// A multi-section checkpoint container written as ONE atomic file. Each
/// section is a named, CRC-checked blob (telemetry records, RNG state,
/// cluster config...). Because the whole container goes through
/// AtomicWriteFile, a crash during Checkpoint() can never leave mixed
/// generations of the parts — the checkpoint on disk is either entirely old
/// or entirely new.
///
/// On-disk layout:
///   magic "KEASNP01"
///   [u32 section_count]
///   repeated: [u32 name_len][name][u32 content_len][u32 crc32(name+content)][content]
/// The up-front count catches truncation at an exact section boundary, which
/// the per-section CRCs alone cannot. The CRC covers the section NAME as
/// well as its content: a bit flip in a name would otherwise silently turn
/// an optional section invisible — state loss with no error anywhere.
class SnapshotWriter {
 public:
  /// Adds a named section. Names must be unique; content is arbitrary bytes.
  void AddSection(const std::string& name, std::string content);

  /// Serializes all sections and atomically replaces `path` (temp + rename).
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Reads a snapshot container, verifying every section's CRC. A snapshot
/// that fails any check is rejected whole — partial trust would defeat the
/// all-or-nothing guarantee the writer provides. Rejected with distinct
/// errors: truncation mid-section, fewer sections than declared, trailing
/// bytes past the declared count, duplicate section names, CRC mismatch.
class SnapshotReader {
 public:
  static StatusOr<SnapshotReader> Open(const std::string& path);

  /// Returns the named section, or NotFound.
  StatusOr<std::string> Section(const std::string& name) const;
  bool Has(const std::string& name) const;
  const std::vector<std::pair<std::string, std::string>>& sections() const {
    return sections_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Keep-last-K snapshot generations: every checkpoint write first rotates
/// the live file `<path>` to `<path>.g<N+1>` (monotonic generation numbers),
/// then installs the new container atomically, then prunes to the newest
/// `keep` rotated generations. Restore walks the live file and then the
/// generations newest-first, so a corrupted or half-installed checkpoint
/// falls back to the newest older one that still validates — the caller
/// replays the journal tail from there to catch up.
class SnapshotGenerations {
 public:
  /// Writes `snapshot` to `path` with rotation. `keep <= 0` disables
  /// rotation entirely — byte-identical to SnapshotWriter::WriteFile.
  static Status Write(const SnapshotWriter& snapshot, const std::string& path,
                      int keep);

  /// Rotated generation numbers present next to `path`, ascending.
  static std::vector<uint64_t> List(const std::string& path);

  /// `<path>.g<generation>`.
  static std::string GenerationPath(const std::string& path,
                                    uint64_t generation);

  struct Restored {
    SnapshotReader reader;
    std::string source_path;
    uint64_t generation = 0;  ///< 0 = the live file.
    size_t discarded = 0;     ///< Newer candidates skipped as invalid.
  };
  /// Opens the newest candidate that (a) parses with all CRCs intact and
  /// (b) passes `validate` (optional — e.g. "checkpoint coverage must not
  /// exceed what the ledger holds"). Candidates that exist but fail either
  /// check are counted in `discarded` and bump the
  /// `durability.generations_discarded` counter. NotFound only when no
  /// candidate exists at all; otherwise the last candidate's error.
  using Validator = std::function<Status(const SnapshotReader&)>;
  static StatusOr<Restored> RestoreLatestValid(const std::string& path,
                                               const Validator& validate = {});
};

/// Little-endian binary codec for component state blobs (telemetry records,
/// RNG cursors, fault injector queues, ...). Doubles are stored as raw
/// IEEE-754 bit patterns so restore is bit-exact; strings are
/// length-prefixed. Each Put appends its bytes in one call.
class StateWriter {
 public:
  /// Reserves room for `bytes` more bytes, for writers that know their size.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutInt(int v) { PutI64(v); }
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutDouble(double v);
  void PutString(const std::string& s);

  const std::string& str() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Reads back what StateWriter wrote, in the same order. Any overrun returns
/// InvalidArgument — a truncated blob never yields fabricated values.
class StateReader {
 public:
  explicit StateReader(std::string data) : data_(std::move(data)) {}

  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI64(int64_t* v);
  Status GetInt(int* v);
  Status GetBool(bool* v);
  Status GetDouble(double* v);
  Status GetString(std::string* s);

  bool AtEnd() const { return pos_ == data_.size(); }
  /// Bytes not yet read.
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string data_;
  size_t pos_ = 0;
};

}  // namespace kea

#endif  // KEA_COMMON_SNAPSHOT_H_
