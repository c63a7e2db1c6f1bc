#ifndef KEA_SIM_FLEET_FAULT_INJECTOR_H_
#define KEA_SIM_FLEET_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sim/cluster.h"
#include "sim/types.h"

namespace kea::sim {

/// How unhealthy the simulated *fleet* is — as opposed to FaultProfile, which
/// corrupts the telemetry about a healthy fleet. Models the environment drift
/// the paper's model-monitoring section worries about: machines crash and
/// restart, whole racks go dark together, hardware silently degrades, and
/// capacity is sometimes lost for good. All rates are per-entity per-hour
/// hazards; a default-constructed profile injects nothing.
struct FleetFaultProfile {
  /// Per up-machine probability of crashing in any hour; repair times are
  /// exponential with this mean (machine lifetimes are exponential too —
  /// the hazard rate is constant).
  double crash_rate_per_hour = 0.0;
  double mean_repair_hours = 8.0;

  /// Per-rack probability of a correlated outage taking every machine in the
  /// rack down at once (ToR switch / PDU failure); exponential duration.
  double rack_outage_rate_per_hour = 0.0;
  double mean_rack_outage_hours = 4.0;

  /// Per healthy-machine probability of onset of slow-node degradation. A
  /// degraded machine's throughput multiplier drops by roughly
  /// `degrade_severity` (jittered per incident) and then creeps back toward
  /// 1.0 by `recovery_per_hour` each hour until fully healed.
  double degrade_rate_per_hour = 0.0;
  double degrade_severity = 0.4;
  double recovery_per_hour = 0.02;

  /// Per up-machine probability of being lost permanently (fire-walled off,
  /// decommissioned after repeated failures). Lost machines never return.
  double permanent_loss_rate_per_hour = 0.0;

  bool empty() const {
    return crash_rate_per_hour == 0.0 && rack_outage_rate_per_hour == 0.0 &&
           degrade_rate_per_hour == 0.0 && permanent_loss_rate_per_hour == 0.0;
  }

  /// No fleet faults (the pass-through profile).
  static FleetFaultProfile None() { return FleetFaultProfile(); }

  /// Frequent independent crashes, fast repair — high machine churn.
  static FleetFaultProfile CrashStorm();

  /// Rare but long rack-wide outages.
  static FleetFaultProfile RackOutages();

  /// No outages, but hardware slowly degrades and recovers.
  static FleetFaultProfile SlowDegradation();
};

/// Health of one machine as seen by a simulation engine.
struct MachineHealth {
  bool up = true;      ///< False while crashed, rack-down, or lost for good.
  double speed = 1.0;  ///< Throughput multiplier in (0, 1]; 1.0 = healthy.
};

/// Deterministic seeded fleet-chaos engine layered on the Cluster. The
/// engines consult it for per-machine health each simulated hour; KEA never
/// sees it directly — faults surface only through the normal telemetry
/// schema (missing machine-hours, inflated latencies, shrunken capacity).
///
/// Every per-entity decision draws from an Rng substream keyed
/// MixSeed(seed ^ salt, (entity_id << 32) | hour), so the fault pattern for
/// a given seed is a pure function of (entity, hour) — independent of
/// iteration order, engine choice, or thread schedule — and the salt family
/// (0xF1EE7FA0C…) is disjoint from TelemetryFaultInjector's (0x7E1E7E1E…),
/// so both injectors compose under one session seed without stream
/// collision (see determinism_test).
class FleetFaultInjector {
 public:
  struct Counters {
    size_t crashes = 0;
    size_t rack_outages = 0;
    size_t degradations = 0;
    size_t recoveries = 0;
    size_t permanent_losses = 0;
    size_t machine_down_hours = 0;  ///< Sum over hours of machines down.
  };

  /// `cluster` must outlive the injector (racks and machine ids are read
  /// from it each hour, so fleet growth between runs is picked up).
  FleetFaultInjector(const Cluster* cluster, const FleetFaultProfile& profile,
                     uint64_t seed);

  /// Advances fault state to `hour`: new crashes, rack outages, degradation
  /// onsets/recoveries, permanent losses. Idempotent per hour and monotonic —
  /// calls for an hour already begun are no-ops, so engines can call it
  /// unconditionally at the top of each simulated hour.
  void BeginHour(HourIndex hour);

  /// Health of machine at index `i` in cluster->machines() for the hour last
  /// passed to BeginHour.
  MachineHealth Health(size_t i) const;

  size_t machines_down_now() const;
  size_t machines_degraded_now() const;

  /// Cumulative down-hours of machine index `i` (0 before its first fault).
  uint64_t down_hours(size_t i) const {
    return i < down_hours_.size() ? down_hours_[i] : 0;
  }
  /// Summed cumulative down-hours over a machine set — the per-arm fault
  /// attribution the experiment fabric records at flight start/end (machine
  /// id == machine index in cluster->machines()).
  uint64_t DownHours(const std::vector<int>& machine_ids) const;

  const Counters& counters() const { return counters_; }
  const FleetFaultProfile& profile() const { return profile_; }

  /// Bit-exact checkpoint of mutable state (down clocks, speeds, loss flags,
  /// counters, hour cursor). Profile and seed are construction-time.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, FleetFaultInjector& injector);

  void EnsureSized();
  Rng EntityRng(uint64_t salt, uint64_t entity_id, HourIndex hour) const;

  const Cluster* cluster_;
  FleetFaultProfile profile_;
  uint64_t seed_;
  Counters counters_;

  HourIndex current_hour_ = -1;  ///< Last hour begun; -1 before first call.
  std::vector<HourIndex> down_until_;       ///< Crash repair clocks (0 = up).
  std::vector<HourIndex> rack_down_until_;  ///< Rack outage clocks, by rack id.
  std::vector<uint8_t> lost_;               ///< Permanent-loss flags.
  std::vector<double> speed_;               ///< Throughput multipliers.
  std::vector<uint64_t> down_hours_;        ///< Cumulative down-hours, by machine.
};

}  // namespace kea::sim

#endif  // KEA_SIM_FLEET_FAULT_INJECTOR_H_
