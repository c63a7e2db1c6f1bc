#ifndef KEA_CORE_EXPERIMENT_FABRIC_H_
#define KEA_CORE_EXPERIMENT_FABRIC_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/flighting.h"
#include "core/guardrailed_rollout.h"
#include "core/treatment.h"
#include "sim/cluster.h"
#include "telemetry/store.h"

namespace kea::core {

/// Why an experiment request could not start alongside the currently active
/// flights. kSharedMachines / kSharedRack / kKnobInteraction /
/// kBlastRadiusBudget are *serialization* reasons — the request waits and is
/// retried at the next slice boundary; kInsufficientMachines and a request
/// too large for the budget even on an idle fabric are permanent rejections.
enum class InterferenceReason {
  kNone = 0,
  kSharedMachines,       ///< Pinned machines overlap an active flight's arms.
  kSharedRack,           ///< Would share a rack with an active flight.
  kKnobInteraction,      ///< Knob couples with an active flight's knob
                         ///< through the scheduler (capacity knobs).
  kBlastRadiusBudget,    ///< Would push flighted machines over the budget.
  kInsufficientMachines, ///< The fleet cannot field both arms at all.
};

const char* InterferenceReasonToString(InterferenceReason reason);

/// One planned A/B flight submitted to the fabric — typically derived from an
/// ExperimentPlanner plan. Both arms are machines_per_arm strong; guardrails
/// are evaluated on the treatment arm every window_hours for num_windows
/// windows, after which the treatment effect is estimated and the
/// configuration restored.
struct FlightRequest {
  std::string name;
  sim::SkuId sku = 0;
  ConfigPatch treatment;
  int machines_per_arm = 8;
  int window_hours = 5;  ///< Slice/guardrail cadence (paper avoids 24h).
  int num_windows = 4;
  /// Optional explicit machine pool (e.g. hand-picked racks). When empty the
  /// fabric partitions free racks of `sku` itself.
  std::vector<int> pinned_machines;
  GuardrailThresholds guardrails;
};

/// Scheduler for concurrent A/B flights (paper Section 6-7 scaled out): admits
/// a queue of planned experiments, partitions the fleet into non-interfering
/// experiment groups — disjoint whole racks per flight, so a correlated rack
/// outage can never straddle two experiments, with control and treatment
/// interleaved *within* each rack ("every other machine in the same rack") so
/// it hits both arms symmetrically — detects cross-experiment interference at
/// admission time with a typed reason, and enforces a global blast-radius
/// budget over all concurrently flighted machines. A per-flight guardrail
/// trip rolls back exactly that flight; everyone else keeps running.
///
/// Every state transition (admit, start, slice boundary, verdict, rollback,
/// conclude) is write-ahead journaled through the DeploymentLedger with
/// idempotency keys "fab<round>/f<index>/<step>", so a crash at any point
/// resumes bit-identically (see experiment_fabric_test's crash sweep). A
/// tripped or concluded flight's racks stay reserved until its *planned*
/// horizon ends — post-rollback carryover must not seed another experiment.
class ExperimentFabric {
 public:
  struct Options {
    /// Global blast-radius budget: active flighted machines (both arms, all
    /// concurrent flights) never exceed this fraction of the fleet.
    double max_flighted_fraction = 0.25;
    /// Pre-start window for each flight's guardrail baseline.
    int baseline_hours = 24;
    /// Threads for per-boundary guardrail evaluation / conclusion estimation.
    /// Results are bit-identical at any thread count.
    int num_threads = 1;
    /// Optional cumulative per-machine-set down-hours accessor (wired to
    /// FleetFaultInjector::DownHours) for per-arm fault attribution.
    std::function<uint64_t(const std::vector<int>&)> down_hours;
  };

  /// Final state of one request, in request order.
  struct FlightConclusion {
    int flight = -1;  ///< Index in the submitted request vector.
    std::string name;
    bool admitted = false;
    /// kNone unless the request was permanently rejected.
    InterferenceReason rejected = InterferenceReason::kNone;
    /// Admission passes the request sat out before starting.
    uint64_t deferrals = 0;

    sim::HourIndex start_hour = 0;
    sim::HourIndex end_hour = 0;  ///< Actual end (trip hour when tripped).
    std::vector<int> racks;
    std::vector<int> treatment_machines;
    std::vector<int> control_machines;

    bool tripped = false;
    int tripped_window = -1;
    GuardrailEvaluation trip_eval;

    /// Treatment-effect estimates over [start_hour, end_hour); only valid
    /// when effect_ok (a tripped flight, or arms starved of telemetry by
    /// chaos, reaches no estimate).
    bool effect_ok = false;
    TreatmentEffect data_read;
    TreatmentEffect task_latency;
    /// 95% CI of data_read.percent_change.
    double data_read_ci_low = 0.0;
    double data_read_ci_high = 0.0;

    /// Machine-down-hours accrued inside the flight window, per arm (0
    /// without a down_hours accessor). Rack-exclusive partitions make these
    /// symmetric under rack outages.
    uint64_t treatment_down_hours = 0;
    uint64_t control_down_hours = 0;
    size_t machines_restored = 0;
  };

  struct Report {
    std::vector<FlightConclusion> flights;  ///< One per request, in order.
    size_t admitted = 0;
    size_t rejected = 0;
    size_t trips = 0;
    /// Peak number of simultaneously running flights / flighted machines.
    size_t max_concurrent = 0;
    size_t peak_flighted_machines = 0;
    sim::HourIndex end_hour = 0;
  };

  /// Advances the world (simulate + ingest) by `hours`, appending telemetry
  /// to the store passed to Run.
  using AdvanceFn = std::function<Status(int hours)>;

  explicit ExperimentFabric(const Options& options);

  /// Runs the whole request queue to completion. Every transition is one
  /// core::JournaledStep keyed "fab<ctx->round>/...": with a context it is
  /// journaled and checkpointed, and a crashed run re-driven through the
  /// same requests finishes bit-identically; a null `ctx` runs the same
  /// steps unjournaled (e.g. what-if exploration). Guardrail trips are
  /// reported per flight, never as a non-OK status. On return the cluster
  /// configuration is restored to its entry state (every flight ends or is
  /// rolled back).
  StatusOr<Report> Run(const std::vector<FlightRequest>& requests,
                       sim::Cluster* cluster,
                       const telemetry::TelemetryStore* store,
                       sim::HourIndex start_hour, const AdvanceFn& advance,
                       JournalContext* ctx);

  /// The checks Run makes of its queue and options before any step, for a
  /// fleet of `fleet` machines: InvalidArgument for an empty queue or a
  /// non-positive option or request field, OutOfRange for a pinned machine
  /// outside the fleet. A caller that journals its own step before Run
  /// checks first, so a queue Run would refuse is never sealed.
  static Status Validate(const std::vector<FlightRequest>& requests,
                         const Options& options, size_t fleet);

  /// Bit-exact codec for FlightConclusion (FLIGHT_CONCLUDED payloads and
  /// report signatures in tests).
  static std::string EncodeConclusion(const FlightConclusion& c);
  static Status DecodeConclusion(const std::string& blob, FlightConclusion* c);

 private:
  Options options_;
};

}  // namespace kea::core

#endif  // KEA_CORE_EXPERIMENT_FABRIC_H_
