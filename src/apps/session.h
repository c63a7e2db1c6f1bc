#ifndef KEA_APPS_SESSION_H_
#define KEA_APPS_SESSION_H_

#include <memory>
#include <string>

#include "apps/capacity.h"
#include "apps/yarn_tuner.h"
#include "common/status.h"
#include "core/deployment.h"
#include "core/deployment_ledger.h"
#include "core/experiment_fabric.h"
#include "core/guardrailed_rollout.h"
#include "core/model_health.h"
#include "core/validation.h"
#include "core/whatif.h"
#include "sim/fault_injector.h"
#include "sim/fleet_fault_injector.h"
#include "sim/fluid_engine.h"
#include "sim/perf_model.h"
#include "telemetry/drift_detector.h"
#include "telemetry/ingestion.h"
#include "telemetry/store.h"

namespace kea::apps {

/// A complete KEA environment bound to one (simulated) cluster: ground-truth
/// model, workload, fluid engine, telemetry store, and a simulation clock.
/// Wraps the recurring Phase I-III production loop of Figure 3 into a small
/// API so downstream users don't have to wire the modules by hand:
///
///   KeaSession session = ... Create(config) ...
///   session.Simulate(a month);
///   auto round = session.RunYarnTuningRound(options);   // fit + LP + deploy
///   session.Simulate(another month);
///   auto validation = session.ValidateModels();         // drift check
///   auto value = session.EstimateCapacityValue(...);    // $$ conversion
class KeaSession {
 public:
  struct Config {
    int machines = 1000;
    uint64_t seed = 42;
    sim::PerfModel::Params perf_params;
    sim::WorkloadSpec workload = sim::WorkloadSpec::Default();
    sim::ClusterSpec cluster;  ///< sku_fractions defaulted when empty.
    sim::FluidEngine::Options engine;
  };

  /// One observational-tuning round's artifacts.
  struct TuningRound {
    YarnConfigTuner::Plan plan;
    std::vector<core::AppliedChange> applied;
    /// Telemetry window (hours) the models were fit on.
    sim::HourIndex fit_begin = 0;
    sim::HourIndex fit_end = 0;
  };

  /// Hardened telemetry path configuration: an optional fault injector (the
  /// chaos stage) in front of a validating ingestion pipeline. With a
  /// zero-fault profile and default pipeline options the hardened path is a
  /// bit-identical pass-through of the direct engine->store path.
  struct IngestionConfig {
    sim::FaultProfile faults;  ///< empty() => no corruption stage.
    telemetry::IngestionPipeline::Options pipeline;
    /// Seed for the injector's fault substreams and the retry jitter.
    uint64_t seed = 1234;
  };

  /// Fleet chaos configuration: a deterministic fault process on the
  /// simulated fleet itself (crashes, rack outages, slow nodes, permanent
  /// loss), as opposed to IngestionConfig which corrupts only the telemetry
  /// *about* the fleet. Both injectors may share one seed — their substream
  /// salt families are disjoint by construction.
  struct FleetChaosConfig {
    sim::FleetFaultProfile profile;  ///< empty() => no fleet faults.
    uint64_t seed = 1234;
  };

  /// Drift-aware self-healing configuration: the DriftDetector watches the
  /// telemetry stream, the ModelHealth breaker guards deployments.
  struct SelfHealingConfig {
    telemetry::DriftDetector::Options drift;
    core::ModelHealth::Options health;
  };

  /// Durable control-plane configuration (see EnableDurability).
  struct DurabilityOptions {
    /// Root of the durable state; must exist. The ledger lives at
    /// `<dir>/ledger.kea`, the telemetry segment at `<dir>/telemetry.kea`,
    /// the checkpoint at `<dir>/checkpoint.kea`.
    std::string dir;
    /// Rotated checkpoint generations retained for fallback restore
    /// (`checkpoint.kea.g<N>`, newest N highest). Resume() falls back
    /// generation by generation past corrupt or inadmissible checkpoints.
    /// 0 keeps only the live file — the pre-generation behavior.
    int keep_generations = 3;
  };

  /// Durability health of the session (the ModelHealth discipline applied to
  /// storage): kDurable is the normal write-ahead regime; kDegraded means the
  /// storage plane failed — the session keeps tuning on in-memory state but
  /// refuses anything that would touch the fleet until TryRestoreDurability
  /// (or the auto-probe in Simulate) brings the plane back.
  enum class DurabilityMode { kOff = 0, kDurable = 1, kDegraded = 2 };

  /// One guarded tuning round's artifacts: the plan plus the staged-rollout
  /// state machine's report (which waves ran, what the guardrails measured,
  /// whether rollback fired).
  struct GuardedRound {
    YarnConfigTuner::Plan plan;
    core::GuardrailedRollout::Report rollout;
    sim::HourIndex fit_begin = 0;
    sim::HourIndex fit_end = 0;

    // Self-healing bookkeeping; defaults describe a session without
    // EnableSelfHealing.
    /// True when the breaker was open: no fit, no deployment this round.
    bool safe_mode = false;
    /// A safe-mode round attempted the scheduled refit (and whether the
    /// held-out validation gate passed).
    bool refit_attempted = false;
    bool refit_passed = false;
    /// ModelHealth state after the round ("HEALTHY" ... "RE-ARMED"), empty
    /// without self-healing.
    std::string health_state;
    /// Drift alarms that fired during this round (incl. its observation
    /// windows).
    size_t drift_alarms = 0;
  };

  struct GuardedRoundOptions {
    YarnConfigTuner::Options tuner;
    int lookback_hours = sim::kHoursPerWeek;
    core::GuardrailedRollout::Options rollout;
  };

  /// Builds the environment. Returns InvalidArgument for malformed specs.
  static StatusOr<std::unique_ptr<KeaSession>> Create(const Config& config);

  /// Turns on the crash-safe control plane, rooted at `dir` (which must
  /// exist): the deployment ledger lives at `<dir>/ledger.kea`, telemetry
  /// in the append-only segment `<dir>/telemetry.kea`, and checkpoints at
  /// `<dir>/checkpoint.kea`. Once enabled:
  ///   - every tuning-round step (plan, guarded waves or unguarded batch,
  ///     outcome) and every manual rollback is journaled write-ahead;
  ///   - Simulate() checkpoints the full session after each call (outside
  ///     rollout observation windows, which checkpoint per journaled step);
  ///   - RunGuardedTuningRound() journals the plan at round start,
  ///     checkpoints after every step, and — after a crash — continues an
  ///     in-flight round from its last journaled step.
  /// A fresh segment holding the current records and an initial checkpoint
  /// are written immediately. From then on the store is append-only: a
  /// store that shrinks is rewritten whole at the next checkpoint. A ledger
  /// that already holds events belongs to an earlier session, which only
  /// Resume() continues: the call then returns FailedPrecondition, writes
  /// nothing and leaves the session non-durable.
  Status EnableDurability(const std::string& dir);
  /// As above with explicit knobs (generation retention).
  Status EnableDurability(const DurabilityOptions& options);

  /// Atomically writes a full-session checkpoint (telemetry, sim clock, RNG
  /// cursors, applied-config state, deployment/ledger bookkeeping) covering
  /// the ledger events whose effects have run, never a resumed round's
  /// pending steps. Telemetry is written once: the records
  /// added since the last checkpoint are appended to telemetry.kea as one
  /// frame, and the checkpoint's "records" section names the prefix of the
  /// segment it covers (record count plus CRC32 of their encodings).
  /// FailedPrecondition before EnableDurability and in degraded-durability
  /// mode (heal first; see TryRestoreDurability).
  Status Checkpoint();

  DurabilityMode durability_mode() const { return durability_mode_; }
  /// The storage failure that forced degraded mode; OK when not degraded.
  const Status& degraded_reason() const { return degraded_reason_; }
  /// Checkpoint generations the last Resume() had to discard before finding
  /// a valid one (0 = the live checkpoint restored cleanly).
  size_t resume_generations_discarded() const {
    return resume_generations_discarded_;
  }

  /// Attempts to leave degraded-durability mode: re-opens the ledger from
  /// disk (salvaged by the journal layer), verifies it still holds every
  /// event this session acknowledged, and re-checkpoints the full in-memory
  /// state (rewriting telemetry.kea whole if an append to it failed). On
  /// success the session is kDurable again; orphan ledger events
  /// (appends that persisted but were reported failed) are re-driven by the
  /// next round exactly once. Never fabricates state: a disk that lost
  /// acknowledged events is refused. FailedPrecondition unless degraded.
  Status TryRestoreDurability();

  /// Reconstructs a session purely from the durable state under `dir`: the
  /// checkpoint defines the state, the ledger defines the progress. A round
  /// that was in flight at the crash is NOT continued here — the next
  /// RunGuardedTuningRound() call picks it up from its last journaled step
  /// and completes it bit-identically to an uninterrupted run.
  ///
  /// A checkpoint generation is admissible only if its "format" section,
  /// read before any other, holds kCheckpointFormat, the ledger holds every
  /// event it covers and telemetry.kea's intact frames reproduce its
  /// records pair; with none admissible, Resume refuses. A checkpoint of
  /// another format (or none) is refused by its format number. Resume reads
  /// telemetry.kea but never writes it: a segment with a torn tail or
  /// frames past the restored coverage is rewritten whole by the resumed
  /// session's first checkpoint.
  static StatusOr<std::unique_ptr<KeaSession>> Resume(const std::string& dir);

  /// The checkpoint layout this build writes in every checkpoint's "format"
  /// section and the only one Resume admits. Any change to a checkpoint
  /// section's layout bumps it (and the golden layouts in persist_test).
  static constexpr uint32_t kCheckpointFormat = 1;

  /// Null until EnableDurability has been called.
  const core::DeploymentLedger* ledger() const { return ledger_.get(); }
  const core::DeploymentModule& deployment() const { return deployment_; }

  /// Advances the simulated cluster by `hours`, appending telemetry. With an
  /// ingestion pipeline enabled, engine output is routed through the fault
  /// injector (if any) and the validating pipeline instead of being appended
  /// directly.
  Status Simulate(int hours);

  /// Routes all subsequent Simulate() telemetry through the hardened
  /// ingestion path. Call before the first Simulate() for a fully validated
  /// store. Replaces any previously enabled pipeline (counters reset).
  /// Refuses, with InvalidArgument and no change, a retry.max_attempts
  /// outside [1, RetryPolicy::kMaxAttempts]; Resume runs this too, so it
  /// refuses a checkpoint holding such a config.
  Status EnableIngestionPipeline(const IngestionConfig& config);

  /// Null until EnableIngestionPipeline has been called.
  const telemetry::IngestionPipeline* ingestion() const { return ingestion_.get(); }
  /// Null unless fault injection is active (non-empty profile).
  const sim::TelemetryFaultInjector* fault_injector() const {
    return fault_injector_.get();
  }

  /// Layers deterministic fleet chaos onto the simulation engine. With an
  /// empty profile every simulated draw stays bit-identical to a session
  /// without chaos. Replaces any previously enabled injector.
  Status EnableFleetChaos(const FleetChaosConfig& config);

  /// Turns on the drift-aware self-healing loop: every Simulate() feeds the
  /// drift detector, alarms trip the ModelHealth breaker, and
  /// RunGuardedTuningRound() honors the breaker — safe-mode rounds hold the
  /// last known-good config, refuse deployments, and drive the auto-refit /
  /// validation-gate / re-arm cycle. With clean telemetry the tuned path is
  /// bit-identical to a session without self-healing.
  Status EnableSelfHealing(const SelfHealingConfig& config);

  /// Null until the corresponding Enable* has been called.
  const sim::FleetFaultInjector* fleet_faults() const {
    return fleet_faults_.get();
  }
  const telemetry::DriftDetector* drift_detector() const { return drift_.get(); }
  const core::ModelHealth* model_health() const { return model_health_.get(); }

  /// Current simulation clock (hours since session start).
  sim::HourIndex now() const { return now_; }

  /// Serving-layer cache-invalidation epochs. model_epoch advances whenever
  /// the session's validation What-if engine is (re)fit — tuning rounds,
  /// FitWhatIfEngine, a passed safe-mode refit — and when a model-health
  /// trip means the current fit is no longer trusted. deploy_epoch advances
  /// whenever the fleet's applied configuration changes (conservative
  /// deploys, staged rollouts that touched machines, rollbacks). Both are
  /// monotonic and survive checkpoint/resume, so any cached artifact keyed
  /// on them is invalidated by exactly the events that stale it.
  uint64_t model_epoch() const { return model_epoch_; }
  uint64_t deploy_epoch() const { return deploy_epoch_; }

  /// The last fitted What-if engine (null before any fit). Owned by the
  /// session and replaced wholesale on the next round/refit — callers must
  /// not hold the pointer across a session mutation.
  const core::WhatIfEngine* whatif_engine() const { return last_engine_.get(); }

  /// Telemetry window [begin, end) of the last fit.
  std::pair<sim::HourIndex, sim::HourIndex> fit_window() const {
    return {last_fit_begin_, last_fit_end_};
  }

  /// Fits the What-if Engine on [now - lookback_hours, now) WITHOUT running
  /// the LP or deploying — the serving layer's "refresh models" request.
  /// Advances model_epoch; does not count as a tuning round for
  /// validation/valuation purposes.
  Status FitWhatIfEngine(const core::WhatIfEngine::Options& options,
                         int lookback_hours);

  /// Runs one observational-tuning round on the telemetry window
  /// [now - lookback_hours, now): fit the What-if Engine, solve the LP, and
  /// deploy conservatively with the given per-round step, which must not be
  /// negative. It is the guarded round's path with one APPLY step, which
  /// journals the clamped batch, in place of the waves: after a crash the
  /// next call on the resumed session completes the round with its recorded
  /// plan and batch, whatever step it passes. A storage failure fails the
  /// call into degraded-durability mode, which, like an open breaker,
  /// refuses it.
  StatusOr<TuningRound> RunYarnTuningRound(const YarnConfigTuner::Options& options,
                                           int lookback_hours, int deploy_max_step);

  /// The robust counterpart of RunYarnTuningRound: fit + LP as usual, then
  /// deploy through the guardrailed staged rollout (canary wave, widening
  /// waves, guardrail checks between waves, automatic rollback on
  /// regression). Refuses to deploy a plan containing non-finite predictions
  /// — a corrupted model never reaches the fleet. Guardrail trips are
  /// reported in GuardedRound::rollout.outcome, not as an error status.
  ///
  /// A durable and a plain session run the same steps; durability only adds
  /// the journal. With durability on, the plan (ROUND_STARTED), every wave
  /// transition and the outcome (ROUND_FINISHED) are journaled under
  /// "round/<n>" and "r<n>/..." keys, and after a crash the next call on the
  /// resumed session completes the round bit-identically. While the
  /// ModelHealth breaker is open the round runs in safe mode (no fit, no
  /// deployment); in degraded-durability mode it is refused.
  StatusOr<GuardedRound> RunGuardedTuningRound(const GuardedRoundOptions& options);

  struct FabricRoundOptions {
    core::ExperimentFabric::Options fabric;
  };

  /// Runs a queue of planned experiments concurrently through the
  /// ExperimentFabric: rack-exclusive non-interfering partitions, typed
  /// interference serialization, the global blast-radius budget, per-flight
  /// guardrail trips with exact rollback. A study's queue (ScSelector,
  /// PowerCappingStudy) runs here journaled. With durability enabled every
  /// fabric transition is journaled under "fab/<n>" + "fab<n>/..." keys and a
  /// crashed run is completed bit-identically by calling this again with the
  /// same requests. With fleet chaos enabled, each flight's down-hours are
  /// attributed in its conclusion (unless options.fabric already carries a
  /// down_hours accessor).
  StatusOr<core::ExperimentFabric::Report> RunExperimentFabric(
      const std::vector<core::FlightRequest>& requests,
      const FabricRoundOptions& options);

  /// Validates the last tuning round's models against telemetry collected
  /// *after* the deployment. FailedPrecondition when no round has run or no
  /// post-deployment telemetry exists.
  StatusOr<core::ValidationReport> ValidateModels(
      const core::ModelValidator::Options& options) const;

  /// Rolls back the last unguarded round's batch (the Phase III escape
  /// hatch) as one journaled MODULE_ROLLBACK step. FailedPrecondition,
  /// journaling nothing, while a round is in flight or no batch is pending:
  /// none applied, rolled back, or superseded by a converged guarded round.
  Status RollbackLastDeployment();

  /// Converts the last round's before/after windows into capacity dollars.
  StatusOr<CapacityConverter::Report> EstimateCapacityValue(
      const CapacityConverter::Options& options) const;

  const sim::Cluster& cluster() const { return cluster_; }
  sim::Cluster* mutable_cluster() { return &cluster_; }
  const telemetry::TelemetryStore& store() const { return store_; }
  telemetry::TelemetryStore* mutable_store() { return &store_; }
  const sim::PerfModel& perf_model() const { return perf_model_; }
  sim::FluidEngine* engine() { return engine_.get(); }
  const sim::WorkloadModel& workload() const { return workload_; }

 private:
  KeaSession(sim::PerfModel perf_model, sim::WorkloadModel workload)
      : perf_model_(std::move(perf_model)), workload_(std::move(workload)) {}

  /// Writes the checkpoint file; `covered_seq` is the number of ledger
  /// events whose effects the written state contains (recorded as
  /// ledger_durable_seq and used on resume to split replay from re-drive).
  /// Brings telemetry.kea up to the store first (SyncSegment).
  Status WriteCheckpoint(uint64_t covered_seq);

  /// Makes telemetry.kea hold exactly the store's records: appends one
  /// frame of the records added since the last append (crash point
  /// "telemetry_segment.append.torn"), or rewrites the segment whole when
  /// it is dirty. A failed append marks it dirty.
  Status SyncSegment();

  /// Replaces telemetry.kea through AtomicWriteFile with the magic plus one
  /// frame of every record, and resets the segment bookkeeping to match.
  Status RewriteSegment();

  /// The journal context of guarded round or fabric run `run_number`: the
  /// ledger, the durable_seq of the restored checkpoint, and WriteCheckpoint
  /// as the per-step hook. Only meaningful while a ledger exists.
  core::JournalContext JournalContextFor(int64_t run_number);

  /// The one tuning-round body outside safe mode, durable or not: plan
  /// sealed at ROUND_STARTED, waves run by GuardrailedRollout::Execute (or,
  /// with `unguarded`, one APPLY step whose batch it receives), outcome
  /// sealed at ROUND_FINISHED. Each is a core::JournaledStep, with a
  /// journal context only while a ledger exists.
  StatusOr<GuardedRound> RunTunedRound(const GuardedRoundOptions& options,
                                       std::vector<core::AppliedChange>* unguarded);

  /// The calls that journal steps, each completing only its own.
  enum class JournaledCall { kGuardedRound, kYarnRound, kRollback, kFabric };

  /// FailedPrecondition while another call's journaled work is in flight,
  /// since the caller's per-step checkpoints would cover its unrun steps
  /// (coverage is a ledger prefix): round `round_count_` started (for a
  /// round call, the other kind's waves or APPLY journaled), rollback
  /// `round_count_` journaled but not yet durable, or fabric run
  /// `fabric_count_` started. OK without a ledger.
  Status RefuseOtherCallsInFlight(JournaledCall caller) const;

  /// The one fabric body, durable or not: queue sealed at FABRIC_STARTED,
  /// flights run by ExperimentFabric::Run, outcome sealed at
  /// FABRIC_FINISHED, each step journaled only while a ledger exists.
  StatusOr<core::ExperimentFabric::Report> RunFlights(
      const std::vector<core::FlightRequest>& requests,
      const FabricRoundOptions& options);

  /// Marks the storage plane failed: records the reason, bumps the
  /// durability.mode gauge and degraded counters. Idempotent.
  void EnterDegradedMode(const Status& reason);

  /// Round body while the ModelHealth breaker is open: hold config, refuse
  /// deployment, attempt the scheduled refit when due.
  StatusOr<GuardedRound> RunSafeModeRound(const GuardedRoundOptions& options);

  /// Refits the What-if models on post-drift telemetry and checks them
  /// against a held-out tail window. On pass, the refitted engine becomes
  /// the session's validation engine. Returns whether the gate passed.
  bool AttemptRefit(const GuardedRoundOptions& options);

  /// Post-round residual tracking + probation bookkeeping; fills the
  /// GuardedRound self-healing fields. No-op without self-healing.
  void FinishRoundHealth(size_t alarms_before, GuardedRound* round);

  /// Total drift alarms fired so far (all metrics + staleness).
  size_t TotalDriftAlarms() const;

  /// The checkpoint's "meta" section: the ledger coverage, the clock and
  /// the round bookkeeping, in one field list for both directions.
  template <typename Ar>
  void PersistMeta(Ar& ar, uint64_t& covered_seq);

  sim::PerfModel perf_model_;
  sim::WorkloadModel workload_;
  sim::Cluster cluster_;
  telemetry::TelemetryStore store_;
  std::unique_ptr<sim::FluidEngine> engine_;
  core::DeploymentModule deployment_;
  // Hardened telemetry path (optional; see EnableIngestionPipeline).
  std::unique_ptr<sim::TelemetryFaultInjector> fault_injector_;
  std::unique_ptr<telemetry::IngestionPipeline> ingestion_;
  /// The engine's output on the ingestion path, cleared and refilled by each
  /// Simulate: its chunks are allocated once, not per call.
  telemetry::TelemetryStore batch_;
  // Fleet chaos + self-healing loop (optional; see EnableFleetChaos /
  // EnableSelfHealing).
  std::unique_ptr<sim::FleetFaultInjector> fleet_faults_;
  std::unique_ptr<telemetry::DriftDetector> drift_;
  std::unique_ptr<core::ModelHealth> model_health_;

  sim::HourIndex now_ = 0;
  // Last tuning round bookkeeping for validation / valuation.
  bool has_round_ = false;
  std::unique_ptr<core::WhatIfEngine> last_engine_;
  sim::HourIndex last_fit_begin_ = 0;
  sim::HourIndex last_fit_end_ = 0;
  sim::HourIndex last_deploy_hour_ = 0;
  // Cache-invalidation epochs (see model_epoch()/deploy_epoch()).
  uint64_t model_epoch_ = 0;
  uint64_t deploy_epoch_ = 0;

  // Durable control plane (null/empty until EnableDurability).
  std::string durability_dir_;
  std::unique_ptr<core::DeploymentLedger> ledger_;
  /// Ledger events below this are covered by the newest checkpoint.
  uint64_t durable_seq_ = 0;
  /// Records written to telemetry.kea and the CRC32 of their encodings in
  /// store order: the coverage pair the next checkpoint records. The
  /// segment's payloads are not kept in memory.
  uint64_t segment_records_ = 0;
  uint32_t segment_crc_ = 0;
  /// telemetry.kea may hold more or other bytes than its first
  /// segment_records_ records (a failed or torn append, or frames past a
  /// resumed checkpoint's coverage): the next checkpoint rewrites it whole.
  bool segment_dirty_ = false;
  /// Self-healing durability plane state (see DurabilityMode).
  DurabilityMode durability_mode_ = DurabilityMode::kOff;
  Status degraded_reason_ = Status::OK();
  int keep_generations_ = 3;
  size_t resume_generations_discarded_ = 0;
  /// Guarded rounds completed (numbers the ledger's round keys).
  int64_t round_count_ = 0;
  /// Fabric runs completed (numbers the ledger's fabric keys).
  int64_t fabric_count_ = 0;
  /// True while a guarded round or fabric run drives Simulate() through its
  /// observation windows — a durable run checkpoints per step there, not per
  /// Simulate.
  bool in_journaled_round_ = false;
  /// Construction-time knobs remembered so checkpoints are self-contained.
  Config config_;
  IngestionConfig ingestion_config_;
  bool ingestion_enabled_ = false;
  FleetChaosConfig fleet_chaos_config_;
  bool fleet_chaos_enabled_ = false;
  SelfHealingConfig self_healing_config_;
  bool self_healing_enabled_ = false;
  /// Options of the last validated-models fit (for resume refit).
  core::WhatIfEngine::Options last_whatif_options_;
};

}  // namespace kea::apps

#endif  // KEA_APPS_SESSION_H_
