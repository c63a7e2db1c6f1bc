#ifndef KEA_COMMON_SNAPSHOT_H_
#define KEA_COMMON_SNAPSHOT_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
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

/// Wire bytes of one value of `T` when every value of `T` encodes to the
/// same width, else 0. A reader checks each sequence count against the bytes
/// left before it allocates: a count the blob cannot hold is refused.
template <typename T>
inline constexpr size_t kWireBytes = 0;
template <>
inline constexpr size_t kWireBytes<uint32_t> = 4;
template <>
inline constexpr size_t kWireBytes<bool> = 4;
template <>
inline constexpr size_t kWireBytes<uint64_t> = 8;
template <>
inline constexpr size_t kWireBytes<int64_t> = 8;
template <>
inline constexpr size_t kWireBytes<int> = 8;
template <>
inline constexpr size_t kWireBytes<double> = 8;

/// Fewest wire bytes of one `T`: its width, or 1 when the width varies.
template <typename T>
constexpr size_t MinWireBytes() {
  return kWireBytes<T> > 0 ? kWireBytes<T> : 1;
}

/// The state archive. Each persisted type lists its fields ONCE, in
///
///   template <typename Ar> void Persist(Ar& ar, T& value);
///
/// and that one function both encodes (Ar = StateWriter) and decodes (Ar =
/// StateReader), so a layout cannot drift between two hand-kept twins.
/// Encode(value) and Decode(blob, &value) run it over a whole blob.
///
/// Wire form, little-endian throughout, by field type:
///   uint32_t 4 bytes; uint64_t and int64_t 8; int 8, as an int64 (a read
///   outside int's range is refused); bool a u32 0/1; double its IEEE-754
///   bits as a u64, so restore is bit-exact; std::string a u32 length, then
///   the bytes; std::vector, std::map, std::unordered_map and
///   std::unordered_set a u64 count, then the elements (hash containers in
///   key order, so equal state encodes to equal bytes); std::array its N
///   elements; std::optional<T> a bool, then the value (T{} when empty);
///   std::pair first, then second; any other type its own Persist.
/// Helpers name the rules a plain field cannot carry: Enum (range-checked
/// on read), Flag (a uint8_t as a bool), Nested (a u32-length-prefixed
/// sub-blob), Seq (a counted sequence with a per-element field list) and
/// Count (a count that must equal what the reader expects).
///
/// Encoding appends each field in one call and never fails.
class StateWriter {
 public:
  static constexpr bool kReading = false;

  /// Reserves room for `bytes` more bytes, for writers that know their size.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }
  void PutU32(uint32_t v) { AppendLittleEndian(v); }
  void PutU64(uint64_t v) { AppendLittleEndian(v); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutInt(int v) { PutI64(v); }
  void PutBool(bool v) { PutU32(v ? 1 : 0); }
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_ += s;
  }

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Field(fields), ...);
  }

  template <typename Wire = int, typename E>
  void Enum(E& e, E /*last*/) {
    Wire wire = static_cast<Wire>(e);
    Field(wire);
  }
  void Flag(uint8_t& v) { PutBool(v != 0); }
  template <typename T>
  void Nested(T& value) {
    const size_t at = buf_.size();
    PutU32(0);
    Field(value);
    const auto len = static_cast<uint32_t>(buf_.size() - at - sizeof(uint32_t));
    for (size_t i = 0; i < sizeof(len); ++i) {
      buf_[at + i] = static_cast<char>(len >> (8 * i));
    }
  }
  template <typename T, typename Fn>
  void Seq(std::vector<T>& v, Fn&& element) {
    PutU64(v.size());
    for (T& x : v) element(x);
  }
  void Count(uint64_t n, const char* /*what*/) { PutU64(n); }
  /// A counted sequence of [first, last): a vector's encoding of a range.
  template <typename It>
  void Range(It first, It last) {
    PutU64(static_cast<uint64_t>(last - first));
    using T = std::remove_cvref_t<decltype(*first)>;
    for (; first != last; ++first) Field(const_cast<T&>(*first));
  }

  const std::string& str() const { return buf_; }
  std::string Release() { return std::move(buf_); }

 private:
  // Appends `v` as sizeof(T) little-endian bytes in one call. The shifts fix
  // the byte order on any host; compilers fold them into a single store.
  template <typename T>
  void AppendLittleEndian(T v) {
    char bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<char>(v >> (8 * i));
    }
    buf_.append(bytes, sizeof(T));
  }

  void Field(uint32_t& v) { PutU32(v); }
  void Field(uint64_t& v) { PutU64(v); }
  void Field(int64_t& v) { PutI64(v); }
  void Field(int& v) { PutInt(v); }
  void Field(bool& v) { PutBool(v); }
  void Field(double& v) { PutDouble(v); }
  void Field(std::string& v) { PutString(v); }
  template <typename T>
  void Field(std::vector<T>& v) {
    Range(v.begin(), v.end());
  }
  template <typename T, size_t N>
  void Field(std::array<T, N>& a) {
    for (T& x : a) Field(x);
  }
  template <typename A, typename B>
  void Field(std::pair<A, B>& p) {
    Field(p.first);
    Field(p.second);
  }
  template <typename T>
  void Field(std::optional<T>& o) {
    bool has = o.has_value();
    T value = o.value_or(T{});
    Field(has);
    Field(value);
  }
  template <typename K, typename V, typename C>
  void Field(std::map<K, V, C>& m) {
    PutU64(m.size());
    for (auto& [key, value] : m) {
      Field(const_cast<K&>(key));
      Field(value);
    }
  }
  template <typename K, typename V>
  void Field(std::unordered_map<K, V>& m) {
    std::vector<K> keys;
    keys.reserve(m.size());
    for (const auto& entry : m) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    PutU64(keys.size());
    for (K& key : keys) {
      Field(key);
      Field(m.find(key)->second);
    }
  }
  template <typename K>
  void Field(std::unordered_set<K>& s) {
    std::vector<K> keys(s.begin(), s.end());
    std::sort(keys.begin(), keys.end());
    Field(keys);
  }
  template <typename T>
  void Field(T& value) {
    Persist(*this, value);
  }

  std::string buf_;
};

/// Reads back what StateWriter wrote, through the same Persist. The reader
/// keeps its FIRST error and reads nothing after it, so a field list needs
/// no per-field error check; Finish() reports it. Two inputs are refused
/// before anything is allocated: an int outside int's range, and a count
/// the remaining bytes cannot hold (MinWireBytes per element). A truncated
/// blob never yields fabricated values.
class StateReader {
 public:
  static constexpr bool kReading = true;

  /// `data` must outlive the reader.
  explicit StateReader(std::string_view data) : data_(data) {}

  template <typename... Ts>
  void operator()(Ts&... fields) {
    (Field(fields), ...);
  }

  template <typename Wire = int, typename E>
  void Enum(E& e, E last) {
    Wire wire{};
    Field(wire);
    const bool below = [&] {
      if constexpr (std::is_signed_v<Wire>) return wire < 0;
      return false;
    }();
    if (!ok()) return;
    if (below || wire > static_cast<Wire>(last)) {
      Fail(Status::InvalidArgument("state blob holds enum value " +
                                   std::to_string(wire) + " outside [0, " +
                                   std::to_string(static_cast<Wire>(last)) +
                                   "]"));
      return;
    }
    e = static_cast<E>(wire);
  }
  void Flag(uint8_t& v) {
    bool b = false;
    Field(b);
    v = b ? 1 : 0;
  }
  template <typename T>
  void Nested(T& value) {
    uint32_t len = 0;
    Field(len);
    if (!ok()) return;
    if (len > remaining()) {
      Fail(Status::InvalidArgument("state blob truncated in a nested blob"));
      return;
    }
    StateReader inner(data_.substr(pos_, len));
    inner.Field(value);
    pos_ += len;
    if (Status done = inner.Finish(); !done.ok()) Fail(done);
  }
  template <typename T, typename Fn>
  void Seq(std::vector<T>& v, Fn&& element) {
    const uint64_t n = ReadCount(1);
    v.clear();
    for (uint64_t i = 0; i < n && ok(); ++i) element(v.emplace_back());
  }
  /// Reads a count that must equal `n`; `what` names the refusal.
  void Count(uint64_t n, const char* what) {
    uint64_t found = 0;
    Field(found);
    if (ok() && found != n) Fail(Status::InvalidArgument(what));
  }

  /// Records `error` unless an earlier one is held.
  void Fail(const Status& error) {
    if (status_.ok()) status_ = error;
  }
  bool ok() const { return status_.ok(); }
  /// The first error; else InvalidArgument when bytes are left unread.
  Status Finish() const;

  bool AtEnd() const { return pos_ == data_.size(); }
  /// Bytes not yet read.
  size_t remaining() const { return data_.size() - pos_; }

 private:
  /// The next sizeof(T) bytes as a little-endian T, or 0 once failed.
  template <typename T>
  T Raw() {
    if (!ok()) return 0;
    if (remaining() < sizeof(T)) {
      Fail(Status::InvalidArgument("state blob truncated"));
      return 0;
    }
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }
  /// A u64 element count, refused when the bytes left cannot hold that many
  /// elements of at least `min_bytes` each.
  uint64_t ReadCount(size_t min_bytes);

  void Field(uint32_t& v) { v = Raw<uint32_t>(); }
  void Field(uint64_t& v) { v = Raw<uint64_t>(); }
  void Field(int64_t& v) { v = static_cast<int64_t>(Raw<uint64_t>()); }
  void Field(int& v);
  void Field(bool& v) { v = Raw<uint32_t>() != 0; }
  void Field(double& v) { v = std::bit_cast<double>(Raw<uint64_t>()); }
  void Field(std::string& v);
  template <typename T>
  void Field(std::vector<T>& v) {
    const uint64_t n = ReadCount(MinWireBytes<T>());
    v.clear();
    if constexpr (kWireBytes<T> > 0) {
      v.resize(n);  // The count is checked against the exact width.
      for (T& x : v) Field(x);
    } else {
      for (uint64_t i = 0; i < n && ok(); ++i) Field(v.emplace_back());
    }
  }
  template <typename T, size_t N>
  void Field(std::array<T, N>& a) {
    for (T& x : a) Field(x);
  }
  template <typename A, typename B>
  void Field(std::pair<A, B>& p) {
    Field(p.first);
    Field(p.second);
  }
  template <typename T>
  void Field(std::optional<T>& o) {
    bool has = false;
    T value{};
    Field(has);
    Field(value);
    if (has) {
      o = std::move(value);
    } else {
      o.reset();
    }
  }
  template <typename Map>
  void FieldMap(Map& m) {
    using K = typename Map::key_type;
    using V = typename Map::mapped_type;
    const uint64_t n = ReadCount(MinWireBytes<K>() + MinWireBytes<V>());
    m.clear();
    for (uint64_t i = 0; i < n && ok(); ++i) {
      K key{};
      V value{};
      Field(key);
      Field(value);
      if (ok() && !m.emplace(std::move(key), std::move(value)).second) {
        Fail(Status::InvalidArgument("state blob repeats a key"));
      }
    }
  }
  template <typename K, typename V, typename C>
  void Field(std::map<K, V, C>& m) {
    FieldMap(m);
  }
  template <typename K, typename V>
  void Field(std::unordered_map<K, V>& m) {
    FieldMap(m);
  }
  template <typename K>
  void Field(std::unordered_set<K>& s) {
    const uint64_t n = ReadCount(MinWireBytes<K>());
    s.clear();
    s.reserve(n);
    for (uint64_t i = 0; i < n && ok(); ++i) {
      K key{};
      Field(key);
      if (ok() && !s.insert(key).second) {
        Fail(Status::InvalidArgument("state blob repeats a key"));
      }
    }
  }
  template <typename T>
  void Field(T& value) {
    Persist(*this, value);
  }

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// The blob of `value`'s Persist.
template <typename T>
std::string Encode(const T& value) {
  StateWriter w;
  // The writer only reads the fields Persist names.
  w(const_cast<T&>(value));
  return w.Release();
}

/// Decodes a whole blob into a copy of `*value` and commits it only when the
/// blob decodes with no error and no trailing bytes, so a refused blob
/// leaves `*value` as it was. Starting from the copy keeps what the blob
/// does not carry (options, bindings) and what Persist checks against.
template <typename T>
Status Decode(std::string_view blob, T* value) {
  T fresh = *value;
  StateReader reader(blob);
  reader(fresh);
  KEA_RETURN_IF_ERROR(reader.Finish());
  *value = std::move(fresh);
  return Status::OK();
}

}  // namespace kea

#endif  // KEA_COMMON_SNAPSHOT_H_
