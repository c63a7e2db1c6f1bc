// Test-only references for the fault injectors: TelemetryFaultInjector's
// Corrupt and write hook, and FleetFaultInjector's BeginHour, as they ran
// before their keyed streams were seeded eight at a time -- one fresh Rng per
// decision, every kind of fleet fault in one loop over the machines. The
// batched injectors must reproduce them record for record, counter for
// counter and byte for byte in SerializeState.

#ifndef KEA_TESTS_REFERENCE_FAULTS_H_
#define KEA_TESTS_REFERENCE_FAULTS_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/snapshot.h"
#include "sim/fault_injector.h"
#include "sim/fleet_fault_injector.h"

namespace kea::sim {

class ReferenceTelemetryFaultInjector {
 public:
  ReferenceTelemetryFaultInjector(const FaultProfile& profile, uint64_t seed)
      : profile_(profile), seed_(seed) {}

  std::vector<telemetry::MachineHourRecord> Corrupt(telemetry::RecordView batch) {
    std::vector<telemetry::MachineHourRecord> out;
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const telemetry::MachineHourRecord& clean : batch) {
      ++counters_.seen;
      if (clean.hour > watermark_) watermark_ = clean.hour;
      telemetry::MachineHourRecord r = clean;
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
      Rng rng(MixSeed(seed_ ^ kRecordSalt, Key(r.machine_id, r.hour)));
      if (rng.Bernoulli(profile_.drop_rate)) {
        ++counters_.dropped;
        continue;
      }
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
        if (rng.Bernoulli(0.5)) {
          r.data_read_mb *= profile_.outlier_scale;
        } else {
          r.avg_task_latency_s *= profile_.outlier_scale;
        }
        ++counters_.made_outlier;
      }
      bool duplicate = rng.Bernoulli(profile_.duplicate_rate);
      if (rng.Bernoulli(profile_.late_rate)) {
        int delay = static_cast<int>(rng.UniformInt(1, std::max(1, profile_.max_late_hours)));
        delayed_[r.hour + delay].push_back(r);
        ++counters_.delayed;
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
    for (auto it = delayed_.begin(); it != delayed_.end() && it->first <= watermark_;) {
      out.insert(out.end(), it->second.begin(), it->second.end());
      it = delayed_.erase(it);
    }
    return out;
  }

  std::vector<telemetry::MachineHourRecord> Flush() {
    std::vector<telemetry::MachineHourRecord> out;
    for (auto& [hour, records] : delayed_) out.insert(out.end(), records.begin(), records.end());
    delayed_.clear();
    return out;
  }

  telemetry::WriteHook MakeWriteHook() {
    if (profile_.transient_error_rate <= 0.0) return nullptr;
    return [this](const telemetry::MachineHourRecord&, int attempt) {
      if (attempt == 0) ++write_calls_;
      uint64_t call = write_calls_ - 1;
      Rng rng(MixSeed(seed_ ^ kWriteSalt, call * 64 + static_cast<uint64_t>(attempt)));
      if (rng.Bernoulli(profile_.transient_error_rate)) {
        ++counters_.transient_errors;
        return Status::Unavailable("telemetry sink momentarily unreachable");
      }
      return Status::OK();
    };
  }

  const TelemetryFaultInjector::Counters& counters() const { return counters_; }
  std::string SerializeState() const { return Encode(*this); }

 private:
  static constexpr uint64_t kRecordSalt = 0x7E1E7E1E00000001ULL;
  static constexpr uint64_t kStuckSalt = 0x7E1E7E1E00000002ULL;
  static constexpr uint64_t kWriteSalt = 0x7E1E7E1E00000003ULL;

  /// TelemetryFaultInjector's field list.
  template <typename Ar>
  friend void Persist(Ar& ar, ReferenceTelemetryFaultInjector& f) {
    TelemetryFaultInjector::Counters& c = f.counters_;
    ar(c.seen, c.dropped, c.duplicated, c.made_non_finite, c.made_out_of_range,
       c.made_outlier, c.stuck_replayed, c.delayed, c.transient_errors,
       f.stuck_payload_, f.delayed_, f.watermark_, f.write_calls_);
  }

  static uint64_t Key(int machine_id, HourIndex hour) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(machine_id)) << 32) |
           static_cast<uint32_t>(hour);
  }

  bool IsStuck(int machine_id) {
    auto [it, inserted] = stuck_verdict_.try_emplace(machine_id, false);
    if (inserted) {
      Rng rng(MixSeed(seed_ ^ kStuckSalt, static_cast<uint32_t>(machine_id)));
      it->second = rng.Bernoulli(profile_.stuck_machine_fraction);
    }
    return it->second;
  }

  FaultProfile profile_;
  uint64_t seed_;
  TelemetryFaultInjector::Counters counters_;
  std::unordered_map<int, bool> stuck_verdict_;
  std::unordered_map<int, telemetry::MachineHourRecord> stuck_payload_;
  std::map<HourIndex, std::vector<telemetry::MachineHourRecord>> delayed_;
  HourIndex watermark_ = -1;
  uint64_t write_calls_ = 0;
};

class ReferenceFleetFaultInjector {
 public:
  ReferenceFleetFaultInjector(const Cluster* cluster, const FleetFaultProfile& profile,
                              uint64_t seed)
      : cluster_(cluster), profile_(profile), seed_(seed) {}

  void BeginHour(HourIndex hour) {
    EnsureSized();
    for (HourIndex h = current_hour_ + 1; h <= hour; ++h) {
      const auto& machines = cluster_->machines();
      if (profile_.rack_outage_rate_per_hour > 0.0) {
        for (size_t r = 0; r < rack_down_until_.size(); ++r) {
          if (rack_down_until_[r] > h) continue;
          Rng rng = EntityRng(kRackSalt, r, h);
          if (rng.Bernoulli(profile_.rack_outage_rate_per_hour)) {
            double d = rng.Exponential(1.0 / profile_.mean_rack_outage_hours);
            rack_down_until_[r] = h + std::max(1, static_cast<int>(d));
            ++counters_.rack_outages;
          }
        }
      }
      for (size_t i = 0; i < machines.size(); ++i) {
        if (lost_[i]) continue;
        const uint64_t id = static_cast<uint64_t>(machines[i].id);
        const bool machine_up =
            down_until_[i] <= h && rack_down_until_[machines[i].rack] <= h;
        if (profile_.permanent_loss_rate_per_hour > 0.0 && machine_up) {
          Rng rng = EntityRng(kLossSalt, id, h);
          if (rng.Bernoulli(profile_.permanent_loss_rate_per_hour)) {
            lost_[i] = 1;
            ++counters_.permanent_losses;
            continue;
          }
        }
        if (profile_.crash_rate_per_hour > 0.0 && machine_up) {
          Rng rng = EntityRng(kCrashSalt, id, h);
          if (rng.Bernoulli(profile_.crash_rate_per_hour)) {
            double repair = rng.Exponential(1.0 / profile_.mean_repair_hours);
            down_until_[i] = h + std::max(1, static_cast<int>(repair));
            ++counters_.crashes;
          }
        }
        if (speed_[i] < 1.0) {
          speed_[i] = std::min(1.0, speed_[i] + profile_.recovery_per_hour);
          if (speed_[i] >= 1.0) ++counters_.recoveries;
        } else if (profile_.degrade_rate_per_hour > 0.0) {
          Rng rng = EntityRng(kDegradeSalt, id, h);
          if (rng.Bernoulli(profile_.degrade_rate_per_hour)) {
            double drop = profile_.degrade_severity * rng.Uniform(0.5, 1.5);
            drop = std::clamp(drop, 0.05, 0.9);
            speed_[i] = 1.0 - drop;
            ++counters_.degradations;
          }
        }
      }
      current_hour_ = h;
      if (!profile_.empty()) {
        size_t down = 0;
        for (size_t i = 0; i < down_until_.size(); ++i) {
          if (!Health(i).up) {
            ++down;
            ++down_hours_[i];
          }
        }
        counters_.machine_down_hours += down;
      }
    }
  }

  MachineHealth Health(size_t i) const {
    MachineHealth h;
    if (current_hour_ < 0 || i >= down_until_.size()) return h;
    const Machine& m = cluster_->machines()[i];
    h.up = !lost_[i] && down_until_[i] <= current_hour_ &&
           rack_down_until_[m.rack] <= current_hour_;
    h.speed = speed_[i];
    return h;
  }

  const FleetFaultInjector::Counters& counters() const { return counters_; }
  std::string SerializeState() const { return Encode(*this); }

 private:
  static constexpr uint64_t kCrashSalt = 0xF1EE7FA0C0000001ULL;
  static constexpr uint64_t kRackSalt = 0xF1EE7FA0C0000002ULL;
  static constexpr uint64_t kDegradeSalt = 0xF1EE7FA0C0000003ULL;
  static constexpr uint64_t kLossSalt = 0xF1EE7FA0C0000004ULL;

  /// FleetFaultInjector's field list.
  template <typename Ar>
  friend void Persist(Ar& ar, ReferenceFleetFaultInjector& f) {
    ar(f.current_hour_, f.down_until_, f.rack_down_until_);
    ar.Seq(f.lost_, [&ar](uint8_t& lost) { ar.Flag(lost); });
    FleetFaultInjector::Counters& c = f.counters_;
    ar(f.speed_, c.crashes, c.rack_outages, c.degradations, c.recoveries,
       c.permanent_losses, c.machine_down_hours, f.down_hours_);
  }

  Rng EntityRng(uint64_t salt, uint64_t entity_id, HourIndex hour) const {
    return Rng(MixSeed(seed_ ^ salt, (entity_id << 32) | static_cast<uint32_t>(hour)));
  }

  void EnsureSized() {
    const auto& machines = cluster_->machines();
    if (down_until_.size() != machines.size()) {
      down_until_.assign(machines.size(), 0);
      lost_.assign(machines.size(), 0);
      speed_.assign(machines.size(), 1.0);
      down_hours_.assign(machines.size(), 0);
    }
    int max_rack = -1;
    for (const Machine& m : machines) max_rack = std::max(max_rack, m.rack);
    if (rack_down_until_.size() != static_cast<size_t>(max_rack + 1)) {
      rack_down_until_.resize(static_cast<size_t>(max_rack + 1), 0);
    }
  }

  const Cluster* cluster_;
  FleetFaultProfile profile_;
  uint64_t seed_;
  FleetFaultInjector::Counters counters_;
  HourIndex current_hour_ = -1;
  std::vector<HourIndex> down_until_;
  std::vector<HourIndex> rack_down_until_;
  std::vector<uint8_t> lost_;
  std::vector<double> speed_;
  std::vector<uint64_t> down_hours_;
};

}  // namespace kea::sim

#endif  // KEA_TESTS_REFERENCE_FAULTS_H_
