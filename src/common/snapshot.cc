#include "common/snapshot.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>

#include "common/io.h"
#include "common/journal.h"
#include "obs/metrics.h"

namespace kea {
namespace {

// Deterministic write/byte totals; write latency is kTiming (wall clock).
obs::Counter* SnapshotWritesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("snapshot.writes");
  return c;
}
obs::Counter* SnapshotBytesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("snapshot.bytes");
  return c;
}
obs::Histogram* SnapshotWriteLatencyHistogram() {
  static obs::Histogram* h = obs::Registry::Get().GetHistogram(
      "snapshot.write_us", "", obs::LatencyBucketsUs(), obs::Kind::kTiming);
  return h;
}
obs::Counter* GenerationsDiscardedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.generations_discarded");
  return c;
}

constexpr char kMagic[] = "KEASNP01";
constexpr size_t kMagicLen = 8;

// Appends `v` as sizeof(T) little-endian bytes in one call. The shifts fix
// the byte order on any host; compilers fold them into a single store.
template <typename T>
void AppendLittleEndian(T v, std::string* out) {
  char bytes[sizeof(T)];
  for (size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>(v >> (8 * i));
  }
  out->append(bytes, sizeof(T));
}

Status ParseU32(const std::string& data, size_t* pos, uint32_t* v) {
  if (data.size() - *pos < 4) {
    return Status::InvalidArgument("snapshot truncated");
  }
  const char* p = data.data() + *pos;
  *v = static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
       static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
       static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
       static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
  *pos += 4;
  return Status::OK();
}

}  // namespace

void SnapshotWriter::AddSection(const std::string& name, std::string content) {
  sections_.emplace_back(name, std::move(content));
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  size_t bytes = kMagicLen + 4;
  for (const auto& [name, content] : sections_) {
    bytes += 3 * 4 + name.size() + content.size();  // Three u32 headers.
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagic, kMagicLen);
  // The section count makes truncation at an exact section boundary — which
  // no per-section CRC can catch — detectable.
  AppendLittleEndian(static_cast<uint32_t>(sections_.size()), &out);
  for (const auto& [name, content] : sections_) {
    AppendLittleEndian(static_cast<uint32_t>(name.size()), &out);
    out += name;
    AppendLittleEndian(static_cast<uint32_t>(content.size()), &out);
    // The CRC covers name and content: a rotted name byte must not be able
    // to silently rename (and thereby hide) a section.
    AppendLittleEndian(Crc32Extend(Crc32(name), content), &out);
    out += content;
  }
  const auto start = std::chrono::steady_clock::now();
  Status written = AtomicWriteFile(path, out);
  if (written.ok()) {
    SnapshotWritesCounter()->Increment();
    SnapshotBytesCounter()->Increment(out.size());
    if (obs::MetricsEnabled()) {
      SnapshotWriteLatencyHistogram()->Observe(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  }
  return written;
}

StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::string data;
  KEA_ASSIGN_OR_RETURN(data, ReadFileToString(path));
  if (data.size() < kMagicLen ||
      std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("not a KEA snapshot: " + path);
  }
  SnapshotReader reader;
  size_t pos = kMagicLen;
  uint32_t section_count = 0;
  KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &section_count));
  std::set<std::string> seen;
  for (uint32_t i = 0; i < section_count; ++i) {
    if (pos >= data.size()) {
      return Status::InvalidArgument(
          "snapshot section count mismatch: declared " +
          std::to_string(section_count) + " sections, found " +
          std::to_string(reader.sections_.size()));
    }
    uint32_t name_len = 0, content_len = 0, crc = 0;
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &name_len));
    if (data.size() - pos < name_len) {
      return Status::InvalidArgument("snapshot truncated in section name");
    }
    std::string name(data.data() + pos, name_len);
    pos += name_len;
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &content_len));
    KEA_RETURN_IF_ERROR(ParseU32(data, &pos, &crc));
    if (data.size() - pos < content_len) {
      return Status::InvalidArgument("snapshot truncated in section '" + name +
                                     "'");
    }
    std::string content(data.data() + pos, content_len);
    pos += content_len;
    if (Crc32Extend(Crc32(name), content) != crc) {
      return Status::InvalidArgument("snapshot CRC mismatch in section '" +
                                     name + "'");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("snapshot has duplicate section '" +
                                     name + "'");
    }
    reader.sections_.emplace_back(std::move(name), std::move(content));
  }
  if (pos != data.size()) {
    return Status::InvalidArgument(
        "snapshot trailer mismatch: " + std::to_string(data.size() - pos) +
        " trailing bytes after " + std::to_string(section_count) +
        " declared sections");
  }
  return reader;
}

Status SnapshotGenerations::Write(const SnapshotWriter& snapshot,
                                  const std::string& path, int keep) {
  if (keep <= 0) return snapshot.WriteFile(path);
  // One directory scan: the install adds no generation, so the rotate's
  // list plus the rotated one is what the prune sees.
  std::vector<uint64_t> gens = List(path);
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Rotate the live checkpoint out of the way before installing the new
    // one. A crash (or fault) between the rotate and the install leaves no
    // live file, but the rotated generation still restores.
    const uint64_t next = gens.empty() ? 1 : gens.back() + 1;
    KEA_RETURN_IF_ERROR(Io::Get().Rename(path, GenerationPath(path, next)));
    gens.push_back(next);
  }
  KEA_RETURN_IF_ERROR(snapshot.WriteFile(path));
  const size_t excess =
      gens.size() > static_cast<size_t>(keep) ? gens.size() - keep : 0;
  for (size_t i = 0; i < excess; ++i) {
    // Best-effort, injection-proof prune: a broken disk must not be able to
    // fail a checkpoint that already installed.
    Io::Get().RemoveFile(GenerationPath(path, gens[i]));
  }
  return Status::OK();
}

std::string SnapshotGenerations::GenerationPath(const std::string& path,
                                                uint64_t generation) {
  return path + ".g" + std::to_string(generation);
}

std::vector<uint64_t> SnapshotGenerations::List(const std::string& path) {
  std::vector<uint64_t> gens;
  const std::filesystem::path live(path);
  std::filesystem::path dir = live.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = live.filename().string() + ".g";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    // Digits only, and they must fit a u64: a stray suffix is not ours.
    uint64_t gen = 0;
    const char* last = name.data() + name.size();
    const auto [end, err] = std::from_chars(name.data() + prefix.size(), last, gen);
    if (err != std::errc() || end != last) continue;
    gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

StatusOr<SnapshotGenerations::Restored> SnapshotGenerations::RestoreLatestValid(
    const std::string& path, const Validator& validate) {
  std::vector<std::pair<uint64_t, std::string>> candidates;
  candidates.emplace_back(0, path);  // The live file is newest.
  std::vector<uint64_t> gens = List(path);
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    candidates.emplace_back(*it, GenerationPath(path, *it));
  }

  size_t discarded = 0;
  Status last_error = Status::NotFound("no snapshot at " + path);
  bool any_exists = false;
  for (const auto& [gen, cpath] : candidates) {
    auto opened = SnapshotReader::Open(cpath);
    if (!opened.ok()) {
      if (opened.status().code() == StatusCode::kNotFound) continue;
      // Exists but unreadable or corrupt: discard and fall back.
      any_exists = true;
      ++discarded;
      last_error = opened.status();
      continue;
    }
    any_exists = true;
    if (validate) {
      Status valid = validate(opened.value());
      if (!valid.ok()) {
        ++discarded;
        last_error = valid;
        continue;
      }
    }
    if (discarded > 0) GenerationsDiscardedCounter()->Increment(discarded);
    Restored restored;
    restored.reader = std::move(opened).value();
    restored.source_path = cpath;
    restored.generation = gen;
    restored.discarded = discarded;
    return restored;
  }
  if (discarded > 0) GenerationsDiscardedCounter()->Increment(discarded);
  if (!any_exists) return Status::NotFound("no snapshot at " + path);
  return last_error;
}

StatusOr<std::string> SnapshotReader::Section(const std::string& name) const {
  for (const auto& [n, content] : sections_) {
    if (n == name) return content;
  }
  return Status::NotFound("snapshot has no section '" + name + "'");
}

bool SnapshotReader::Has(const std::string& name) const {
  for (const auto& [n, content] : sections_) {
    if (n == name) return true;
  }
  return false;
}

void StateReader::Field(int& v) {
  const int64_t wide = static_cast<int64_t>(Raw<uint64_t>());
  if (wide < std::numeric_limits<int>::min() ||
      wide > std::numeric_limits<int>::max()) {
    Fail(Status::InvalidArgument("state blob holds " + std::to_string(wide) +
                                 " where an int is expected"));
    return;
  }
  v = static_cast<int>(wide);
}

void StateReader::Field(std::string& v) {
  const uint32_t len = Raw<uint32_t>();
  if (!ok()) return;
  if (len > remaining()) {
    Fail(Status::InvalidArgument("state blob truncated in string"));
    return;
  }
  v.assign(data_.data() + pos_, len);
  pos_ += len;
}

uint64_t StateReader::ReadCount(size_t min_bytes) {
  const uint64_t n = Raw<uint64_t>();
  if (!ok()) return 0;
  if (n > remaining() / min_bytes) {
    Fail(Status::InvalidArgument(
        "state blob declares " + std::to_string(n) + " elements but holds " +
        std::to_string(remaining()) + " bytes"));
    return 0;
  }
  return n;
}

Status StateReader::Finish() const {
  if (!status_.ok()) return status_;
  if (!AtEnd()) {
    return Status::InvalidArgument("state blob has " +
                                   std::to_string(remaining()) +
                                   " trailing bytes");
  }
  return Status::OK();
}

}  // namespace kea
