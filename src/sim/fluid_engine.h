#ifndef KEA_SIM_FLUID_ENGINE_H_
#define KEA_SIM_FLUID_ENGINE_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sim/cluster.h"
#include "sim/fleet_fault_injector.h"
#include "sim/perf_model.h"
#include "sim/workload.h"
#include "telemetry/store.h"

namespace kea::sim {

/// The fluid (machine-hour) simulation engine. Instead of simulating billions
/// of individual tasks, it advances the cluster one hour at a time:
///
///   1. draw the cluster-wide offered load (containers) from the workload
///      model — demand is anchored to the *baseline* capacity so config
///      changes affect absorption, not demand;
///   2. spread the load uniformly across machines (the Cosmos scheduler
///      randomizes task placement, Section 3.2 Level IV), respecting each
///      machine's max_num_running_containers and redistributing overflow to
///      machines with spare slots (work conservation);
///   3. load that no machine can run queues as low-priority containers
///      (Section 5.3);
///   4. evaluate the ground-truth PerfModel per machine, add observation
///      noise, and emit one MachineHourRecord per machine.
///
/// This is the scale layer: tens of thousands of machine-weeks per second.
/// Task/job-level questions use the discrete-event JobSimulator instead.
class FluidEngine {
 public:
  struct Options {
    uint64_t seed = 42;
    /// Lognormal sigma of per-machine placement imbalance.
    double placement_noise_sigma = 0.06;
    /// Relative Gaussian noise on observed utilization.
    double utilization_noise = 0.02;
    /// Lognormal sigma on observed task latency.
    double latency_noise_sigma = 0.06;
    /// Lognormal sigma on observed data read.
    double data_noise_sigma = 0.04;
    /// Rounds of overflow redistribution (work conservation fidelity).
    int redistribution_rounds = 4;

    /// Machine failure injection: per-machine probability of failing in any
    /// hour, and the mean hours until repair. Failed machines run nothing
    /// and emit no telemetry (production pipelines see gaps, not zeros) —
    /// "big-data systems are by design very resilient to individual
    /// failures" (Section 3.2), and KEA's statistical models must be too.
    double failure_rate_per_hour = 0.0;
    double mean_repair_hours = 12.0;
  };

  /// `model`, `cluster` and `workload` must outlive the engine. The engine
  /// reads the cluster configuration at every simulated hour, so flighting /
  /// deployment changes made between Run() calls take effect naturally.
  FluidEngine(const PerfModel* model, Cluster* cluster, const WorkloadModel* workload,
              const Options& options);

  /// Baseline capacity used to anchor demand (sum of max_containers at
  /// construction time).
  double baseline_slots() const { return baseline_slots_; }

  /// Layers fleet chaos onto the simulation: machines the injector reports
  /// down contribute no capacity and no telemetry, and degraded machines run
  /// tasks slower by the injector's speed multiplier. The injector draws only
  /// from its own seed-mixed substreams — attaching one with an empty profile
  /// leaves every engine draw bit-identical. Pass nullptr to detach; `faults`
  /// must outlive the engine.
  void AttachFleetFaults(FleetFaultInjector* faults) { fleet_faults_ = faults; }

  /// Simulates hours [start, start + hours) and appends one record per
  /// machine per hour into `store`. Returns InvalidArgument on a null store
  /// or non-positive hours.
  Status Run(HourIndex start_hour, int hours, telemetry::TelemetryStore* store);

  /// Bit-exact checkpoint of mutable state: the RNG cursor, the demand
  /// anchor, and per-machine downtime. baseline_slots_ must be restored
  /// rather than recomputed — the restored cluster already carries applied
  /// config changes, and re-anchoring demand to it would shift every
  /// subsequent draw. offered_/assigned_ are per-hour scratch and excluded.
  std::string SerializeState() const;
  Status RestoreState(const std::string& blob);

 private:
  template <typename Ar>
  friend void Persist(Ar& ar, FluidEngine& engine);

  void SimulateHour(HourIndex hour, telemetry::TelemetryStore* store);

  const PerfModel* model_;
  Cluster* cluster_;
  const WorkloadModel* workload_;
  Options options_;
  Rng rng_;
  double baseline_slots_;

  // Scratch buffers reused across hours.
  std::vector<double> offered_;
  std::vector<double> assigned_;
  // Failure injection: hour at which each machine comes back up (0 = up).
  std::vector<HourIndex> down_until_;

  // Fleet chaos (not owned; state checkpointed by its owner, not here).
  FleetFaultInjector* fleet_faults_ = nullptr;
  // Per-hour health snapshot scratch, valid while fleet_faults_ is attached.
  std::vector<uint8_t> fleet_up_;
  std::vector<double> fleet_speed_;
};

}  // namespace kea::sim

#endif  // KEA_SIM_FLUID_ENGINE_H_
