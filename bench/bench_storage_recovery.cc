// Measures what the self-healing durability plane costs and how fast it
// recovers: the per-round cost of running durable (a durable guarded round
// checkpoints after every journaled step so any crash window is covered;
// each checkpoint appends only the telemetry added since the last one),
// checkpoint write latency (the median of the rounds' post-round
// checkpoints, and the mean over a loop of kCheckpointLoop checkpoints of
// the resumed session, which resolves a few microseconds),
// Resume() latency from the live checkpoint, fallback-restore latency as
// corruption forces Resume() one, two, then three generations back, and
// offline Journal::Scrub throughput over the ledger — and the durable
// rounds' write volume in bytes, which does not depend on the host: every
// byte the durability plane wrote (checkpoint installs, ledger appends,
// telemetry segment appends) per byte of telemetry the rounds added. Writes
// BENCH_storage_recovery.json for the storage-chaos CI job.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/session.h"
#include "bench/bench_util.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "obs/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;
using kea::apps::KeaSession;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

[[noreturn]] void Die(const kea::Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::exit(1);
}

constexpr int kMachines = 160;
constexpr int kPreludeHours = 48;
constexpr int kRounds = 4;
constexpr uint64_t kSeed = 7;
/// Checkpoints timed back to back in one process for checkpoint_loop_us.
constexpr int kCheckpointLoop = 3000;

KeaSession::GuardedRoundOptions RoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = kPreludeHours;
  options.rollout.wave_fractions = {0.5, 1.0};
  options.rollout.observe_hours_per_wave = 4;
  options.rollout.baseline_hours = 8;
  return options;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByte(const std::string& path) {
  std::string bytes = ReadBytes(path);
  if (bytes.empty()) return;
  bytes[bytes.size() / 2] ^= 0x5A;
  WriteBytes(path, bytes);
}

/// Checkpoint generation paths in `dir`, newest first, as
/// SnapshotGenerations::List parses them (a suffix that is not all digits or
/// does not fit a u64 is not a generation).
std::vector<std::string> GenerationsNewestFirst(const std::string& dir) {
  const std::string live = dir + "/checkpoint.kea";
  const std::vector<uint64_t> generations =
      kea::SnapshotGenerations::List(live);
  std::vector<std::string> paths;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    paths.push_back(kea::SnapshotGenerations::GenerationPath(live, *it));
  }
  return paths;
}

/// Bytes the durability plane has written: checkpoint (and segment
/// rewrite) installs, ledger appends and telemetry segment appends.
uint64_t DurableBytesWritten() {
  const kea::obs::Registry& registry = kea::obs::Registry::Get();
  return registry.CounterValue("atomic_write.bytes") +
         registry.CounterValue("journal.append_bytes") +
         registry.CounterValue("durability.segment_append_bytes");
}

/// What the durable rounds wrote against the telemetry they added, both in
/// bytes (a record of telemetry is its 152-byte encoding).
struct WriteVolume {
  uint64_t written = 0;
  uint64_t telemetry = 0;
};

/// Runs `rounds` guarded rounds (Simulate(24) between them) on a fresh
/// session and returns per-round latencies. With `durable`, the session
/// journals every fleet mutation to `dir`, `checkpoint_ms`/`bytes` receive
/// the explicit post-round checkpoint cost, and `volume` the rounds' writes.
std::vector<double> TimedRounds(bool durable, const std::string& dir,
                                std::vector<double>* checkpoint_ms,
                                size_t* checkpoint_bytes,
                                WriteVolume* volume) {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = kSeed;
  auto session_or = KeaSession::Create(config);
  if (!session_or.ok()) Die(session_or.status());
  auto session = std::move(session_or).value();
  if (durable) {
    KeaSession::DurabilityOptions options;
    options.dir = dir;
    options.keep_generations = 3;
    auto status = session->EnableDurability(options);
    if (!status.ok()) Die(status);
  }
  if (auto s = session->Simulate(kPreludeHours); !s.ok()) Die(s);

  auto options = RoundOptions();
  const uint64_t written_before = DurableBytesWritten();
  const size_t records_before = session->store().size();
  std::vector<double> latencies;
  for (int i = 0; i < kRounds; ++i) {
    auto start = Clock::now();
    auto round = session->RunGuardedTuningRound(options);
    if (!round.ok()) Die(round.status());
    latencies.push_back(MsSince(start));
    if (durable) {
      auto ckpt_start = Clock::now();
      if (auto s = session->Checkpoint(); !s.ok()) Die(s);
      checkpoint_ms->push_back(MsSince(ckpt_start));
      *checkpoint_bytes =
          std::filesystem::file_size(dir + "/checkpoint.kea");
    }
    if (auto s = session->Simulate(24); !s.ok()) Die(s);
  }
  if (durable) {
    volume->written = DurableBytesWritten() - written_before;
    volume->telemetry = (session->store().size() - records_before) *
                        kea::telemetry::kMachineHourRecordBytes;
  }
  return latencies;
}

/// Resumes from `dir` and returns (latency ms, generations discarded).
std::pair<double, size_t> TimedResume(const std::string& dir) {
  auto start = Clock::now();
  auto resumed = KeaSession::Resume(dir);
  double ms = MsSince(start);
  if (!resumed.ok()) Die(resumed.status());
  return {ms, resumed.value()->resume_generations_discarded()};
}

}  // namespace

int main() {
  kea::bench::PrintBanner(
      "Durability plane cost/recovery - checkpointing, fallback restore, "
      "scrub",
      "checkpoints append only new telemetry; fallback cost grows with "
      "depth");

  const std::string dir = "bench_storage_state";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Warm-up, then the measured passes (identical schedule, same seed).
  TimedRounds(false, dir, nullptr, nullptr, nullptr);
  std::vector<double> plain = TimedRounds(false, dir, nullptr, nullptr, nullptr);
  std::vector<double> checkpoint_ms;
  size_t checkpoint_bytes = 0;
  WriteVolume volume;
  std::vector<double> durable =
      TimedRounds(true, dir, &checkpoint_ms, &checkpoint_bytes, &volume);
  const size_t segment_bytes =
      std::filesystem::file_size(dir + "/telemetry.kea");
  const double write_amp = static_cast<double>(volume.written) /
                           static_cast<double>(volume.telemetry);
  double plain_ms = Median(plain);
  double durable_ms = Median(durable);
  // A durable round checkpoints after every internal simulate step; this is
  // the whole difference between the two paths (the ledger appends are noise
  // next to the checkpoint writes).
  double checkpointing_ms_per_round = durable_ms - plain_ms;

  // Snapshot the durable world so each fallback depth starts from the same
  // on-disk state. After kRounds checkpoints with keep_generations=3 the dir
  // holds the live checkpoint plus three generations.
  std::map<std::string, std::string> world;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    world[entry.path().string()] = ReadBytes(entry.path().string());
  }
  auto restore_world = [&] {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto& [path, bytes] : world) WriteBytes(path, bytes);
  };

  auto [resume_live_ms, live_discarded] = TimedResume(dir);
  if (live_discarded != 0) {
    std::fprintf(stderr, "clean resume discarded %zu generations\n",
                 live_discarded);
    return 1;
  }

  // Fallback restore: corrupt the live checkpoint plus the (depth-1) newest
  // generations, forcing Resume() `depth` candidates back. Latency grows with
  // depth because the restored checkpoint covers less and more of the ledger
  // must be replayed.
  std::vector<double> fallback_ms(4, 0.0);
  for (size_t depth = 1; depth <= 3; ++depth) {
    restore_world();
    FlipByte(dir + "/checkpoint.kea");
    std::vector<std::string> generations = GenerationsNewestFirst(dir);
    if (generations.size() < 3) {
      std::fprintf(stderr, "expected 3 generations, found %zu\n",
                   generations.size());
      return 1;
    }
    for (size_t g = 0; g + 1 < depth; ++g) FlipByte(generations[g]);
    auto [ms, discarded] = TimedResume(dir);
    if (discarded != depth) {
      std::fprintf(stderr, "depth %zu resume discarded %zu\n", depth,
                   discarded);
      return 1;
    }
    fallback_ms[depth] = ms;
  }
  restore_world();

  // Back-to-back checkpoints of the resumed session: their mean resolves a
  // few microseconds, where four single timings spread by tens. Each one
  // rotates a generation, so this runs after every read of the saved world.
  double checkpoint_loop_us = 0.0;
  {
    auto resumed = KeaSession::Resume(dir);
    if (!resumed.ok()) Die(resumed.status());
    auto loop_start = Clock::now();
    for (int i = 0; i < kCheckpointLoop; ++i) {
      if (auto s = resumed.value()->Checkpoint(); !s.ok()) Die(s);
    }
    checkpoint_loop_us = MsSince(loop_start) * 1e3 / kCheckpointLoop;
  }
  restore_world();

  // Offline scrub throughput over the ledger (dry run: verify only).
  const std::string ledger = dir + "/ledger.kea";
  size_t ledger_bytes = std::filesystem::file_size(ledger);
  auto scrub_start = Clock::now();
  auto scrub = kea::Journal::Scrub(ledger, /*repair=*/false);
  double scrub_ms = MsSince(scrub_start);
  if (!scrub.ok()) Die(scrub.status());
  double scrub_mb_per_s =
      (static_cast<double>(ledger_bytes) / 1e6) / (scrub_ms / 1e3);

  kea::bench::PrintRow({"path", "round ms (median)", "checkpointing ms"}, 18);
  kea::bench::PrintRow({"plain", kea::bench::Fmt(plain_ms, 2), "-"}, 18);
  kea::bench::PrintRow({"durable", kea::bench::Fmt(durable_ms, 2),
                        kea::bench::Fmt(checkpointing_ms_per_round, 2)},
                       18);
  std::printf("\ncheckpoint: %.3f ms median of %d (%zu bytes), %.1f us mean "
              "of %d back to back; resume (live): %.2f ms\n",
              Median(checkpoint_ms), kRounds, checkpoint_bytes,
              checkpoint_loop_us, kCheckpointLoop, resume_live_ms);
  std::printf("fallback resume: 1 gen %.2f ms, 2 gen %.2f ms, 3 gen %.2f ms\n",
              fallback_ms[1], fallback_ms[2], fallback_ms[3]);
  std::printf("scrub: %zu ledger bytes in %.2f ms (%.1f MB/s, %zu records)\n",
              ledger_bytes, scrub_ms, scrub_mb_per_s, scrub.value().records);
  std::printf("write volume: %.0f bytes/round for %.0f bytes of telemetry "
              "(write_amp %.2f); telemetry segment %zu bytes\n",
              static_cast<double>(volume.written) / kRounds,
              static_cast<double>(volume.telemetry) / kRounds, write_amp,
              segment_bytes);

  FILE* out = std::fopen("BENCH_storage_recovery.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_storage_recovery.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"machines\": %d,\n"
               "  \"rounds\": %d,\n"
               "  \"plain_round_ms\": %.3f,\n"
               "  \"durable_round_ms\": %.3f,\n"
               "  \"checkpointing_ms_per_round\": %.2f,\n"
               "  \"checkpoint_ms\": %.3f,\n"
               "  \"checkpoint_loop_us\": %.1f,\n"
               "  \"checkpoint_loop_count\": %d,\n"
               "  \"checkpoint_bytes\": %zu,\n"
               "  \"resume_live_ms\": %.3f,\n"
               "  \"fallback_resume_1gen_ms\": %.3f,\n"
               "  \"fallback_resume_2gen_ms\": %.3f,\n"
               "  \"fallback_resume_3gen_ms\": %.3f,\n"
               "  \"ledger_bytes\": %zu,\n"
               "  \"scrub_ms\": %.3f,\n"
               "  \"scrub_mb_per_s\": %.1f,\n"
               "  \"segment_bytes\": %zu,\n"
               "  \"bytes_written_per_round\": %.0f,\n"
               "  \"write_amp\": %.3f,\n"
               "%s\n"
               "}\n",
               kMachines, kRounds, plain_ms, durable_ms,
               checkpointing_ms_per_round,
               Median(checkpoint_ms), checkpoint_loop_us, kCheckpointLoop,
               checkpoint_bytes, resume_live_ms,
               fallback_ms[1], fallback_ms[2], fallback_ms[3], ledger_bytes,
               scrub_ms, scrub_mb_per_s, segment_bytes,
               static_cast<double>(volume.written) / kRounds, write_amp,
               kea::bench::HostJsonFields().c_str());
  std::fclose(out);
  std::printf("wrote BENCH_storage_recovery.json\n");
  std::filesystem::remove_all(dir);
  return 0;
}
