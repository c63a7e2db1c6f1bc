#include "sim/fault_injector.h"

#include <algorithm>
#include <limits>

#include "common/retry.h"
#include "common/snapshot.h"

namespace kea::sim {
namespace {

// Salt constants separating the injector's substream families.
constexpr uint64_t kRecordSalt = 0x7E1E7E1E00000001ULL;
constexpr uint64_t kStuckSalt = 0x7E1E7E1E00000002ULL;
constexpr uint64_t kWriteSalt = 0x7E1E7E1E00000003ULL;

}  // namespace

FaultProfile FaultProfile::Moderate() {
  FaultProfile p;
  p.drop_rate = 0.02;
  p.duplicate_rate = 0.02;
  p.non_finite_rate = 0.01;
  p.out_of_range_rate = 0.01;
  p.outlier_rate = 0.01;
  p.outlier_scale = 50.0;
  p.stuck_machine_fraction = 0.02;
  p.late_rate = 0.03;
  p.max_late_hours = 6;
  p.transient_error_rate = 0.05;
  return p;
}

uint64_t TelemetryFaultInjector::RecordSeed(const telemetry::MachineHourRecord& r) const {
  uint64_t id = static_cast<uint64_t>(static_cast<uint32_t>(r.machine_id));
  uint64_t hour = static_cast<uint64_t>(static_cast<uint32_t>(r.hour));
  return MixSeed(seed_ ^ kRecordSalt, (id << 32) | hour);
}

bool TelemetryFaultInjector::IsStuck(int machine_id) {
  auto [it, inserted] = stuck_verdict_.try_emplace(machine_id, false);
  if (inserted) {
    Rng rng(MixSeed(seed_ ^ kStuckSalt,
                    static_cast<uint64_t>(static_cast<uint32_t>(machine_id))));
    it->second = rng.Bernoulli(profile_.stuck_machine_fraction);
  }
  return it->second;
}

std::vector<telemetry::MachineHourRecord> TelemetryFaultInjector::Corrupt(
    telemetry::RecordView batch) {
  std::vector<telemetry::MachineHourRecord> out;
  out.reserve(batch.size());
  // A stuck replay keeps the record's machine and hour, so its key is the
  // clean record's.
  streams_.ForEach(
      batch.size(), [&](size_t i) -> std::optional<uint64_t> { return RecordSeed(batch[i]); },
      [&](size_t i, Rng& rng) { CorruptOne(batch[i], rng, &out); });

  // Release delayed records whose hour has come, oldest first, after the
  // fresh records — i.e. out of hour order, as a real pipeline would see.
  for (auto it = delayed_.begin();
       it != delayed_.end() && it->first <= watermark_;) {
    out.insert(out.end(), it->second.begin(), it->second.end());
    it = delayed_.erase(it);
  }
  return out;
}

void TelemetryFaultInjector::CorruptOne(const telemetry::MachineHourRecord& clean, Rng& rng,
                                        std::vector<telemetry::MachineHourRecord>* out) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ++counters_.seen;
  if (clean.hour > watermark_) watermark_ = clean.hour;
  telemetry::MachineHourRecord r = clean;

  // Stuck-counter machines replay their first observed payload forever
  // (identity fields — machine, hour, rack, group — stay live; it is the
  // measurements that freeze).
  if (profile_.stuck_machine_fraction > 0.0 && IsStuck(r.machine_id)) {
    auto [it, inserted] = stuck_payload_.try_emplace(r.machine_id, r);
    if (!inserted) {
      telemetry::MachineHourRecord frozen = it->second;
      frozen.machine_id = r.machine_id;
      frozen.hour = r.hour;
      frozen.rack = r.rack;
      frozen.sku = r.sku;
      frozen.sc = r.sc;
      r = frozen;
      ++counters_.stuck_replayed;
    }
  }

  if (rng.Bernoulli(profile_.drop_rate)) {
    ++counters_.dropped;
    return;
  }

  // At most one corruption kind per record, drawn in a fixed order so the
  // pattern is stable under profile tweaks to unrelated rates.
  if (rng.Bernoulli(profile_.non_finite_rate)) {
    double poison = kNan;
    switch (rng.UniformInt(0, 2)) {
      case 0: poison = kNan; break;
      case 1: poison = kInf; break;
      default: poison = -kInf; break;
    }
    switch (rng.UniformInt(0, 3)) {
      case 0: r.cpu_utilization = poison; break;
      case 1: r.tasks_finished = poison; break;
      case 2: r.data_read_mb = poison; break;
      default: r.avg_task_latency_s = poison; break;
    }
    ++counters_.made_non_finite;
  } else if (rng.Bernoulli(profile_.out_of_range_rate)) {
    switch (rng.UniformInt(0, 2)) {
      case 0: r.cpu_utilization = 1.0 + rng.Uniform(0.1, 2.0); break;
      case 1: r.tasks_finished = -rng.Uniform(1.0, 100.0); break;
      default: r.data_read_mb = -rng.Uniform(1.0, 1000.0); break;
    }
    ++counters_.made_out_of_range;
  } else if (rng.Bernoulli(profile_.outlier_rate)) {
    // In-range garbage: plausible schema, absurd magnitude.
    if (rng.Bernoulli(0.5)) {
      r.data_read_mb *= profile_.outlier_scale;
    } else {
      r.avg_task_latency_s *= profile_.outlier_scale;
    }
    ++counters_.made_outlier;
  }

  bool duplicate = rng.Bernoulli(profile_.duplicate_rate);
  if (rng.Bernoulli(profile_.late_rate)) {
    int delay = static_cast<int>(
        rng.UniformInt(1, std::max(1, profile_.max_late_hours)));
    delayed_[r.hour + delay].push_back(r);
    ++counters_.delayed;
    // A delayed record's replay copy arrives with it.
    if (duplicate) {
      delayed_[r.hour + delay].push_back(r);
      ++counters_.duplicated;
    }
    return;
  }
  out->push_back(r);
  if (duplicate) {
    out->push_back(r);
    ++counters_.duplicated;
  }
}

std::vector<telemetry::MachineHourRecord> TelemetryFaultInjector::Flush() {
  std::vector<telemetry::MachineHourRecord> out;
  for (auto& [hour, records] : delayed_) {
    out.insert(out.end(), records.begin(), records.end());
  }
  delayed_.clear();
  return out;
}

uint64_t TelemetryFaultInjector::WriteSeed(uint64_t call, int attempt) const {
  return MixSeed(seed_ ^ kWriteSalt,
                 call * RetryPolicy::kMaxAttempts + static_cast<uint64_t>(attempt));
}

bool TelemetryFaultInjector::FirstAttemptFails(uint64_t call) {
  if (call - verdict_base_ >= verdict_count_) {
    verdict_base_ = call;
    verdict_count_ = Rng::kSeedLanes;
    verdicts_ = 0;
    streams_.ForEach(
        verdict_count_, [&](size_t k) -> std::optional<uint64_t> { return WriteSeed(call + k, 0); },
        [&](size_t k, Rng& rng) {
          if (rng.Bernoulli(profile_.transient_error_rate)) verdicts_ |= uint32_t{1} << k;
        });
  }
  return (verdicts_ >> (call - verdict_base_)) & 1;
}

telemetry::WriteHook TelemetryFaultInjector::MakeWriteHook() {
  if (profile_.transient_error_rate <= 0.0) return nullptr;
  return [this](const telemetry::MachineHourRecord&, int attempt) {
    // Attempt 0 opens a new logical call; retries reuse its index so the
    // (call, attempt) substream key is stable for a given record.
    if (attempt == 0) ++write_calls_;
    uint64_t call = write_calls_ - 1;
    const bool fails = attempt == 0 ? FirstAttemptFails(call)
                                    : Rng(WriteSeed(call, attempt))
                                          .Bernoulli(profile_.transient_error_rate);
    if (fails) {
      ++counters_.transient_errors;
      return Status::Unavailable("telemetry sink momentarily unreachable");
    }
    return Status::OK();
  };
}

template <typename Ar>
void Persist(Ar& ar, TelemetryFaultInjector& f) {
  TelemetryFaultInjector::Counters& c = f.counters_;
  ar(c.seen, c.dropped, c.duplicated, c.made_non_finite, c.made_out_of_range,
     c.made_outlier, c.stuck_replayed, c.delayed, c.transient_errors,
     f.stuck_payload_, f.delayed_, f.watermark_, f.write_calls_);
}

std::string TelemetryFaultInjector::SerializeState() const {
  return Encode(*this);
}

Status TelemetryFaultInjector::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::sim
