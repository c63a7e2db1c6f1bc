#ifndef KEA_APPS_POWER_CAPPING_H_
#define KEA_APPS_POWER_CAPPING_H_

#include <vector>

#include "common/status.h"
#include "core/experiment_fabric.h"
#include "sim/cluster.h"
#include "sim/fluid_engine.h"
#include "sim/perf_model.h"
#include "telemetry/store.h"

namespace kea::apps {

/// Experimental tuning: power capping (Section 7.2). For each capping level,
/// four machine groups of the same SKU run concurrently for a round
/// (hybrid setting — chassis-level capping makes the ideal setting
/// impossible), as the four arms of one fabric flight:
///   A: no capping, Feature off (baseline, the control arm)
///   B: no capping, Feature on
///   C: capping,    Feature off
///   D: capping,    Feature on
/// Performance is compared with *normalized* metrics (Bytes per CPU Time,
/// Bytes per Second) that are robust to load level, and each round's cells
/// are benchmarked against its own group A (Figure 15).
class PowerCappingStudy {
 public:
  struct Options {
    sim::SkuId sku = 4;  ///< Default: Gen3.2.
    /// Cap levels as fractions below the provisioned level.
    std::vector<double> cap_levels = {0.10, 0.15, 0.20, 0.25, 0.30};
    /// Machines per group (the paper uses 120).
    int group_size = 120;
    /// Hours per experiment round ("more than 24 hours").
    int hours_per_round = 26;
  };

  /// One (cap level, feature) cell of Figure 15.
  struct Cell {
    double cap_level = 0.0;
    bool capped = false;
    bool feature = false;
    /// Fractional change vs. the same round's group A.
    double bytes_per_cpu_time_change = 0.0;
    double bytes_per_second_change = 0.0;
    double avg_power_watts = 0.0;
    /// Welch t-value of the per-machine-hour Bytes-per-CPU-Time samples vs
    /// group A (positive = this cell above baseline).
    double t_value = 0.0;
    bool significant = false;
  };

  struct Result {
    std::vector<Cell> cells;
    /// Watts saved per machine at the deepest cap level that does not
    /// degrade Bytes per CPU Time by more than 1% with the Feature enabled.
    double recommended_cap_level = 0.0;
    double provisioned_watts_saved_per_machine = 0.0;
  };

  PowerCappingStudy() : options_(Options()) {}
  explicit PowerCappingStudy(const Options& options) : options_(options) {}

  /// The study's queue: one 4-arm request per cap level, every one pinned to
  /// the same HybridGroups, so the fabric serialises the rounds through the
  /// racks they share. Each round is one guardrail window.
  StatusOr<std::vector<core::FlightRequest>> Requests(
      const sim::Cluster& cluster) const;

  /// Reads Figure 15 from `store` over the arms and window of each round's
  /// concluded flight. FailedPrecondition when a round was rejected or
  /// tripped (core::ConclusionStatus). `model` is used only to translate the
  /// recommended cap level into watts saved.
  StatusOr<Result> Read(const sim::PerfModel& model,
                        const telemetry::TelemetryStore& store,
                        const core::ExperimentFabric::Report& report) const;

  /// Runs all experiment rounds on the simulator: Requests, then
  /// core::ExperimentFabric::Run without a journal (the engine keeps
  /// appending to `store` from `start_hour`), then Read. The fabric restores
  /// the configuration. `start_hour` must follow a day of telemetry, the
  /// guardrail baseline.
  StatusOr<Result> Run(const sim::PerfModel& model, sim::Cluster* cluster,
                       sim::FluidEngine* engine, telemetry::TelemetryStore* store,
                       sim::HourIndex start_hour) const;

 private:
  Options options_;
};

}  // namespace kea::apps

#endif  // KEA_APPS_POWER_CAPPING_H_
