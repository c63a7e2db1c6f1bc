#include "sim/fleet_fault_injector.h"

#include <algorithm>
#include <cmath>

#include "common/snapshot.h"

namespace kea::sim {

namespace {

// Substream salt family for fleet faults. Deliberately disjoint from
// TelemetryFaultInjector's 0x7E1E7E1E… family so both injectors can share
// one session seed without their draws colliding (see determinism_test).
constexpr uint64_t kCrashSalt = 0xF1EE7FA0C0000001ULL;
constexpr uint64_t kRackSalt = 0xF1EE7FA0C0000002ULL;
constexpr uint64_t kDegradeSalt = 0xF1EE7FA0C0000003ULL;
constexpr uint64_t kLossSalt = 0xF1EE7FA0C0000004ULL;

}  // namespace

FleetFaultProfile FleetFaultProfile::CrashStorm() {
  FleetFaultProfile p;
  p.crash_rate_per_hour = 0.01;
  p.mean_repair_hours = 6.0;
  return p;
}

FleetFaultProfile FleetFaultProfile::RackOutages() {
  FleetFaultProfile p;
  p.rack_outage_rate_per_hour = 0.01;
  p.mean_rack_outage_hours = 12.0;
  return p;
}

FleetFaultProfile FleetFaultProfile::SlowDegradation() {
  FleetFaultProfile p;
  p.degrade_rate_per_hour = 0.01;
  p.degrade_severity = 0.4;
  p.recovery_per_hour = 0.01;
  return p;
}

FleetFaultInjector::FleetFaultInjector(const Cluster* cluster,
                                       const FleetFaultProfile& profile,
                                       uint64_t seed)
    : cluster_(cluster), profile_(profile), seed_(seed) {}

uint64_t FleetFaultInjector::EntitySeed(uint64_t salt, uint64_t entity_id,
                                       HourIndex hour) const {
  return MixSeed(seed_ ^ salt, (entity_id << 32) | static_cast<uint32_t>(hour));
}

void FleetFaultInjector::EnsureSized() {
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

void FleetFaultInjector::BeginHour(HourIndex hour) {
  EnsureSized();
  for (HourIndex h = current_hour_ + 1; h <= hour; ++h) {
    const auto& machines = cluster_->machines();
    // Each fault kind is one pass whose streams are seeded eight at a time.
    // A decision writes only its own entity's state, and each kind draws
    // from its own streams, so the passes decide as one interleaved loop
    // over the machines would.
    const auto machine_up = [&](size_t i) {
      return down_until_[i] <= h && rack_down_until_[machines[i].rack] <= h;
    };
    const auto machine_seed = [&](uint64_t salt, size_t i) {
      return EntitySeed(salt, static_cast<uint64_t>(machines[i].id), h);
    };

    if (profile_.rack_outage_rate_per_hour > 0.0) {
      streams_.ForEach(
          rack_down_until_.size(),
          [&](size_t r) -> std::optional<uint64_t> {
            if (rack_down_until_[r] > h) return std::nullopt;
            return EntitySeed(kRackSalt, r, h);
          },
          [&](size_t r, Rng& rng) {
            if (rng.Bernoulli(profile_.rack_outage_rate_per_hour)) {
              double d = rng.Exponential(1.0 / profile_.mean_rack_outage_hours);
              rack_down_until_[r] = h + std::max(1, static_cast<int>(d));
              ++counters_.rack_outages;
            }
          });
    }

    if (profile_.permanent_loss_rate_per_hour > 0.0) {
      streams_.ForEach(
          machines.size(),
          [&](size_t i) -> std::optional<uint64_t> {
            if (lost_[i] || !machine_up(i)) return std::nullopt;
            return machine_seed(kLossSalt, i);
          },
          [&](size_t i, Rng& rng) {
            if (rng.Bernoulli(profile_.permanent_loss_rate_per_hour)) {
              lost_[i] = 1;
              ++counters_.permanent_losses;
            }
          });
    }

    if (profile_.crash_rate_per_hour > 0.0) {
      streams_.ForEach(
          machines.size(),
          [&](size_t i) -> std::optional<uint64_t> {
            if (lost_[i] || !machine_up(i)) return std::nullopt;
            return machine_seed(kCrashSalt, i);
          },
          [&](size_t i, Rng& rng) {
            if (rng.Bernoulli(profile_.crash_rate_per_hour)) {
              double repair = rng.Exponential(1.0 / profile_.mean_repair_hours);
              down_until_[i] = h + std::max(1, static_cast<int>(repair));
              ++counters_.crashes;
            }
          });
    }

    // A degraded machine creeps back with no draw (onset fixed the
    // trajectory); only a healthy one draws an onset.
    streams_.ForEach(
        machines.size(),
        [&](size_t i) -> std::optional<uint64_t> {
          if (lost_[i]) return std::nullopt;
          if (speed_[i] < 1.0) {
            speed_[i] = std::min(1.0, speed_[i] + profile_.recovery_per_hour);
            if (speed_[i] >= 1.0) ++counters_.recoveries;
            return std::nullopt;
          }
          if (profile_.degrade_rate_per_hour <= 0.0) return std::nullopt;
          return machine_seed(kDegradeSalt, i);
        },
        [&](size_t i, Rng& rng) {
          if (rng.Bernoulli(profile_.degrade_rate_per_hour)) {
            double drop = profile_.degrade_severity * rng.Uniform(0.5, 1.5);
            drop = std::clamp(drop, 0.05, 0.9);
            speed_[i] = 1.0 - drop;
            ++counters_.degradations;
          }
        });

    current_hour_ = h;
    if (!profile_.empty()) {
      // One pass feeds both the fleet-wide counter and the per-machine
      // attribution (the fabric charges each flight arm its own down-hours).
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

MachineHealth FleetFaultInjector::Health(size_t i) const {
  MachineHealth h;
  if (current_hour_ < 0 || i >= down_until_.size()) return h;
  const Machine& m = cluster_->machines()[i];
  h.up = !lost_[i] && down_until_[i] <= current_hour_ &&
         rack_down_until_[m.rack] <= current_hour_;
  h.speed = speed_[i];
  return h;
}

size_t FleetFaultInjector::machines_down_now() const {
  size_t down = 0;
  for (size_t i = 0; i < down_until_.size(); ++i) {
    if (!Health(i).up) ++down;
  }
  return down;
}

uint64_t FleetFaultInjector::DownHours(const std::vector<int>& machine_ids) const {
  uint64_t total = 0;
  for (int id : machine_ids) {
    if (id >= 0) total += down_hours(static_cast<size_t>(id));
  }
  return total;
}

size_t FleetFaultInjector::machines_degraded_now() const {
  size_t degraded = 0;
  for (double s : speed_) {
    if (s < 1.0) ++degraded;
  }
  return degraded;
}

template <typename Ar>
void Persist(Ar& ar, FleetFaultInjector& f) {
  ar(f.current_hour_, f.down_until_, f.rack_down_until_);
  ar.Seq(f.lost_, [&ar](uint8_t& lost) { ar.Flag(lost); });
  FleetFaultInjector::Counters& c = f.counters_;
  ar(f.speed_, c.crashes, c.rack_outages, c.degradations, c.recoveries,
     c.permanent_losses, c.machine_down_hours, f.down_hours_);
}

std::string FleetFaultInjector::SerializeState() const { return Encode(*this); }

Status FleetFaultInjector::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::sim
