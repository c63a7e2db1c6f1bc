#include "sim/fault_injector.h"

#include <algorithm>
#include <limits>

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

Rng TelemetryFaultInjector::RecordRng(const telemetry::MachineHourRecord& r,
                                      uint64_t salt) const {
  uint64_t id = static_cast<uint64_t>(static_cast<uint32_t>(r.machine_id));
  uint64_t hour = static_cast<uint64_t>(static_cast<uint32_t>(r.hour));
  return Rng(MixSeed(seed_ ^ salt, (id << 32) | hour));
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
    const std::vector<telemetry::MachineHourRecord>& batch) {
  std::vector<telemetry::MachineHourRecord> out;
  out.reserve(batch.size());
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  for (const telemetry::MachineHourRecord& clean : batch) {
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

    Rng rng = RecordRng(r, kRecordSalt);
    if (rng.Bernoulli(profile_.drop_rate)) {
      ++counters_.dropped;
      continue;
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
      continue;
    }
    out.push_back(r);
    if (duplicate) {
      out.push_back(r);
      ++counters_.duplicated;
    }
  }

  // Release delayed records whose hour has come, oldest first, after the
  // fresh records — i.e. out of hour order, as a real pipeline would see.
  for (auto it = delayed_.begin();
       it != delayed_.end() && it->first <= watermark_;) {
    out.insert(out.end(), it->second.begin(), it->second.end());
    it = delayed_.erase(it);
  }
  return out;
}

std::vector<telemetry::MachineHourRecord> TelemetryFaultInjector::Flush() {
  std::vector<telemetry::MachineHourRecord> out;
  for (auto& [hour, records] : delayed_) {
    out.insert(out.end(), records.begin(), records.end());
  }
  delayed_.clear();
  return out;
}

telemetry::WriteHook TelemetryFaultInjector::MakeWriteHook() {
  if (profile_.transient_error_rate <= 0.0) return nullptr;
  return [this](const telemetry::MachineHourRecord&, int attempt) {
    // Attempt 0 opens a new logical call; retries reuse its index so the
    // (call, attempt) substream key is stable for a given record.
    if (attempt == 0) ++write_calls_;
    uint64_t call = write_calls_ - 1;
    Rng rng(MixSeed(seed_ ^ kWriteSalt,
                    call * 64 + static_cast<uint64_t>(attempt)));
    if (rng.Bernoulli(profile_.transient_error_rate)) {
      ++counters_.transient_errors;
      return Status::Unavailable("telemetry sink momentarily unreachable");
    }
    return Status::OK();
  };
}

std::string TelemetryFaultInjector::SerializeState() const {
  StateWriter w;
  w.PutU64(counters_.seen);
  w.PutU64(counters_.dropped);
  w.PutU64(counters_.duplicated);
  w.PutU64(counters_.made_non_finite);
  w.PutU64(counters_.made_out_of_range);
  w.PutU64(counters_.made_outlier);
  w.PutU64(counters_.stuck_replayed);
  w.PutU64(counters_.delayed);
  w.PutU64(counters_.transient_errors);

  // Canonical (sorted) order for the hash map so identical logical state
  // always serializes to identical bytes.
  std::vector<int> machines;
  machines.reserve(stuck_payload_.size());
  for (const auto& [machine, record] : stuck_payload_) machines.push_back(machine);
  std::sort(machines.begin(), machines.end());
  w.PutU64(machines.size());
  for (int machine : machines) {
    w.PutInt(machine);
    telemetry::PutMachineHourRecord(stuck_payload_.at(machine), &w);
  }

  w.PutU64(delayed_.size());
  for (const auto& [hour, records] : delayed_) {
    w.PutI64(hour);
    w.PutU64(records.size());
    for (const auto& record : records) telemetry::PutMachineHourRecord(record, &w);
  }

  w.PutI64(watermark_);
  w.PutU64(write_calls_);
  return w.Release();
}

Status TelemetryFaultInjector::RestoreState(const std::string& blob) {
  StateReader r(blob);
  Counters counters;
  uint64_t u = 0;
  size_t* fields[] = {&counters.seen,          &counters.dropped,
                      &counters.duplicated,    &counters.made_non_finite,
                      &counters.made_out_of_range, &counters.made_outlier,
                      &counters.stuck_replayed, &counters.delayed,
                      &counters.transient_errors};
  for (size_t* f : fields) {
    KEA_RETURN_IF_ERROR(r.GetU64(&u));
    *f = u;
  }

  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  std::unordered_map<int, telemetry::MachineHourRecord> stuck;
  stuck.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int machine = 0;
    telemetry::MachineHourRecord record;
    KEA_RETURN_IF_ERROR(r.GetInt(&machine));
    KEA_RETURN_IF_ERROR(telemetry::GetMachineHourRecord(&r, &record));
    stuck[machine] = record;
  }

  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  std::map<HourIndex, std::vector<telemetry::MachineHourRecord>> delayed;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t hour = 0;
    uint64_t n = 0;
    KEA_RETURN_IF_ERROR(r.GetI64(&hour));
    KEA_RETURN_IF_ERROR(r.GetU64(&n));
    std::vector<telemetry::MachineHourRecord> records(n);
    for (auto& record : records) {
      KEA_RETURN_IF_ERROR(telemetry::GetMachineHourRecord(&r, &record));
    }
    delayed[static_cast<HourIndex>(hour)] = std::move(records);
  }

  int64_t watermark = 0;
  uint64_t write_calls = 0;
  KEA_RETURN_IF_ERROR(r.GetI64(&watermark));
  KEA_RETURN_IF_ERROR(r.GetU64(&write_calls));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in fault-injector state blob");
  }

  counters_ = counters;
  stuck_payload_ = std::move(stuck);
  delayed_ = std::move(delayed);
  watermark_ = static_cast<HourIndex>(watermark);
  write_calls_ = write_calls;
  return Status::OK();
}

}  // namespace kea::sim
