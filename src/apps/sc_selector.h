#ifndef KEA_APPS_SC_SELECTOR_H_
#define KEA_APPS_SC_SELECTOR_H_

#include <vector>

#include "common/status.h"
#include "core/experiment.h"
#include "core/experiment_fabric.h"
#include "core/treatment.h"
#include "sim/cluster.h"
#include "sim/fluid_engine.h"
#include "telemetry/store.h"

namespace kea::apps {

/// Experimental tuning: selecting between software configurations SC1 (local
/// temp store on HDD) and SC2 (local temp store on SSD), Section 7.1.
///
/// Uses the *ideal* experiment setting: IdealAssignment's arms — every other
/// machine in the same racks and SC strata — form the control (SC1) and
/// treatment (SC2) arms, so both arms see statistically identical workloads.
/// The experiment is one fabric flight over consecutive workdays, and the
/// study reports the Table 4 metrics with Student t-values.
class ScSelector {
 public:
  struct Options {
    sim::SkuId sku = 3;  ///< Default: Gen3.1.
    /// Racks to enroll (the paper used two rows of ~700 machines each; with
    /// 40-machine racks, 35 racks give ~700 per arm).
    int max_racks = 35;
    int min_machines_per_arm = 50;
    /// Consecutive workdays of data collection (the paper used five).
    int workdays = 5;
  };

  struct Result {
    core::ExperimentAssignment assignment;
    core::BalanceReport balance;
    /// Table 4 rows: per-machine-day Total Data Read and mean task latency.
    core::TreatmentEffect data_read;
    core::TreatmentEffect task_latency;
    /// True when SC2 dominates: higher throughput and lower latency, both
    /// significant.
    bool sc2_dominates = false;
  };

  ScSelector() : options_(Options()) {}
  explicit ScSelector(const Options& options) : options_(options) {}

  /// The experiment's queue: one request pinning IdealAssignment's arms,
  /// arm 0 patched to SC1 and arm 1 to SC2, guarded once per workday.
  StatusOr<std::vector<core::FlightRequest>> Requests(
      const sim::Cluster& cluster) const;

  /// Reads Table 4 from `store` over the arms and window of the queue's
  /// concluded flight. FailedPrecondition when it was rejected or tripped
  /// (core::ConclusionStatus).
  StatusOr<Result> Read(const sim::Cluster& cluster,
                        const telemetry::TelemetryStore& store,
                        const core::ExperimentFabric::Report& report) const;

  /// Runs the experiment on the simulator: Requests, then
  /// core::ExperimentFabric::Run without a journal (simulating `workdays` x
  /// 24 hours from `start_hour`), then Read. The fabric restores the
  /// configuration. `start_hour` must follow a day of telemetry, the
  /// guardrail baseline; align it to a Monday to avoid weekend effects.
  StatusOr<Result> Run(sim::Cluster* cluster, sim::FluidEngine* engine,
                       telemetry::TelemetryStore* store,
                       sim::HourIndex start_hour) const;

 private:
  Options options_;
};

}  // namespace kea::apps

#endif  // KEA_APPS_SC_SELECTOR_H_
