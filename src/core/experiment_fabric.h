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
  kInsufficientMachines, ///< The fleet cannot field every arm at all.
};

const char* InterferenceReasonToString(InterferenceReason reason);

/// One planned experiment submitted to the fabric — typically derived from an
/// ExperimentPlanner plan, or queued by a study (SC selection, power
/// capping). Arm 0 is the control, and its patch may be empty; every other
/// arm is a treatment judged against arm 0. Every patched arm is guarded
/// every window_hours for num_windows windows, after which each treatment
/// arm's effect is estimated and the configuration restored.
struct FlightRequest {
  std::string name;
  sim::SkuId sku = 0;
  /// One patch per arm; at least two arms, and every arm but arm 0 patched.
  std::vector<ConfigPatch> arms;
  /// Machines per arm when the fabric deals the arms itself (DealArms over
  /// free whole racks of `sku`); unused with pinned arms.
  int machines_per_arm = 8;
  int window_hours = 5;  ///< Slice/guardrail cadence (paper avoids 24h).
  int num_windows = 4;
  /// Optional explicit arms, one machine list per arm, all of `sku`. Pairwise
  /// disjoint arms run concurrently. Arms that are all the same machine set
  /// run time-sliced: window w runs arm w mod k, so num_windows >= k.
  std::vector<std::vector<int>> pinned_arms;
  GuardrailThresholds guardrails;
};

/// True when the request's pinned arms are all one machine set (the
/// time-slicing setting of Section 7).
bool IsTimeSliced(const FlightRequest& req);

/// Scheduler for concurrent experiments (paper Section 6-7 scaled out), and
/// the one code path that patches machines for an experiment: admits a queue
/// of planned experiments, partitions the fleet into non-interfering
/// experiment groups — disjoint whole racks per flight, so a correlated rack
/// outage can never straddle two experiments, with the arms dealt *within*
/// each rack and SC stratum (DealArms: "every other machine in the same
/// rack") so it hits every arm symmetrically — detects cross-experiment
/// interference at admission time with a typed reason, and enforces a global
/// blast-radius budget over all concurrently flighted machines. A per-flight
/// guardrail trip rolls back exactly that flight; everyone else keeps
/// running.
///
/// Every state transition (admit, start, slice boundary, verdict, rollback,
/// conclude) is write-ahead journaled through the DeploymentLedger with
/// idempotency keys "fab<round>/f<index>/<step>", so a crash at any point
/// resumes bit-identically (see experiment_fabric_test's crash sweep). A
/// time-sliced flight switches arms in its verdict step. A tripped or
/// concluded flight's racks stay reserved until its *planned* horizon ends —
/// post-rollback carryover must not seed another experiment.
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
    /// FleetFaultInjector::DownHours) for per-flight fault attribution.
    std::function<uint64_t(const std::vector<int>&)> down_hours;
  };

  /// One arm of a flight's conclusion. The effect fields of arm a >= 1
  /// estimate it against arm 0 (per machine-hour, over the hours each arm
  /// ran) and are valid only when the conclusion's effect_ok; arm 0 leaves
  /// them unset.
  struct ArmConclusion {
    std::vector<int> machines;
    /// Hours the arm ran: the whole flight for concurrent arms, its own
    /// windows for time-sliced ones.
    int hours = 0;
    TreatmentEffect data_read;
    TreatmentEffect task_latency;
    /// 95% CI of data_read.percent_change.
    double data_read_ci_low = 0.0;
    double data_read_ci_high = 0.0;
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
    std::vector<ArmConclusion> arms;  ///< One per request arm; 0 = control.

    bool tripped = false;
    int tripped_window = -1;
    int tripped_arm = -1;
    GuardrailEvaluation trip_eval;

    /// True when every treatment arm reached an estimate (a tripped flight,
    /// or arms starved of telemetry by chaos, reaches none).
    bool effect_ok = false;

    /// Machine-down-hours accrued on the flight's machines inside its window
    /// (0 without a down_hours accessor).
    uint64_t down_hours = 0;
    /// Distinct machines the flight patched, and restored at its end.
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
  /// steps unjournaled (e.g. a study's own run). Guardrail trips are
  /// reported per flight, never as a non-OK status. On return the cluster
  /// configuration is restored to its entry state (every flight ends or is
  /// rolled back).
  StatusOr<Report> Run(const std::vector<FlightRequest>& requests,
                       sim::Cluster* cluster,
                       const telemetry::TelemetryStore* store,
                       sim::HourIndex start_hour, const AdvanceFn& advance,
                       JournalContext* ctx);

  /// The checks Run makes of its queue and options before any step:
  /// InvalidArgument for an empty queue, a non-positive option or request
  /// field, fewer than two arms, an unpatched treatment arm, or malformed
  /// pinned arms (a count other than one per arm, an empty arm, a machine of
  /// another SKU, an id repeated within an arm, arms that overlap without
  /// being identical, a time-sliced flight with fewer windows than arms);
  /// OutOfRange for a pinned machine outside the fleet. A caller that
  /// journals its own step before Run checks first, so a queue Run would
  /// refuse is never sealed.
  static Status Validate(const std::vector<FlightRequest>& requests,
                         const Options& options, const sim::Cluster& cluster);

 private:
  Options options_;
};

// ---- Field lists for the state archive (common/snapshot.h).

template <typename Ar>
void Persist(Ar& ar, TreatmentEffect& e) {
  ar(e.metric, e.control_mean, e.treatment_mean, e.percent_change, e.t_value,
     e.p_value, e.significant);
}

template <typename Ar>
void Persist(Ar& ar, ExperimentFabric::ArmConclusion& arm) {
  ar(arm.machines, arm.hours, arm.data_read, arm.task_latency,
     arm.data_read_ci_low, arm.data_read_ci_high);
}

/// The FLIGHT_CONCLUDED payload.
template <typename Ar>
void Persist(Ar& ar, ExperimentFabric::FlightConclusion& c) {
  ar(c.flight, c.name, c.admitted);
  ar.Enum(c.rejected, InterferenceReason::kInsufficientMachines);
  ar(c.deferrals, c.start_hour, c.end_hour, c.racks, c.arms, c.tripped,
     c.tripped_window, c.tripped_arm);
  ar.Nested(c.trip_eval);
  ar(c.effect_ok, c.down_hours, c.machines_restored);
}

/// The FLIGHT_STARTED payload: every arm's patch with the priors of its
/// machines (none for an unpatched arm), then the flight's down-hours
/// reading at its start. The record, not the request, is the authority for
/// every later patch, switch and restore.
struct FlightStart {
  /// Pre-flight value of every config field a patch can touch, for one
  /// machine, so rollback restores bit-exact state even across a crash.
  struct Prior {
    int id = 0;
    int old_max = 0;
    int new_max = 0;  ///< Post-patch value (for the applied-changes audit CSV).
    double power = 1.0;
    bool feature = false;
    int sc = 0;
  };
  struct Arm {
    ConfigPatch patch;
    std::vector<Prior> priors;
  };
  std::vector<Arm> arms;
  uint64_t down_hours = 0;
};

template <typename Ar>
void Persist(Ar& ar, FlightStart::Prior& p) {
  ar(p.id, p.old_max, p.new_max, p.power, p.feature, p.sc);
}

template <typename Ar>
void Persist(Ar& ar, FlightStart::Arm& arm) {
  ar.Nested(arm.patch);
  ar(arm.priors);
}

template <typename Ar>
void Persist(Ar& ar, FlightStart& start) {
  ar(start.arms, start.down_hours);
}

/// OK for a flight that ran to its conclusion; FailedPrecondition naming the
/// InterferenceReason of a rejected flight, or the guardrail evidence
/// (GuardrailEvaluation::Describe) of a tripped one. What a study returns
/// when its flight does not conclude.
Status ConclusionStatus(const ExperimentFabric::FlightConclusion& c);

}  // namespace kea::core

#endif  // KEA_CORE_EXPERIMENT_FABRIC_H_
