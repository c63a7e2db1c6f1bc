#include "apps/session.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "telemetry/perf_monitor.h"

namespace kea::apps {
namespace {

constexpr char kLedgerFile[] = "/ledger.kea";
constexpr char kCheckpointFile[] = "/checkpoint.kea";
constexpr char kSegmentFile[] = "/telemetry.kea";
constexpr char kSegmentMagic[] = "KEATLM01";

// Deterministic session-level counters: logical calls and simulated hours, not
// wall clock.
obs::Counter* SimulateCallsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("session.simulate_calls");
  return c;
}
obs::Counter* SimulateHoursCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("session.simulate_hours");
  return c;
}
obs::Counter* RoundsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("session.rounds");
  return c;
}
// Self-healing durability plane. The mode gauge mirrors DurabilityMode
// (0=off, 1=durable, 2=degraded); kTiming keeps mode flips out of the
// deterministic export. The entry/restore counters are deterministic — they
// only move when storage actually fails (injected or real).
obs::Gauge* DurabilityModeGauge() {
  static obs::Gauge* g = obs::Registry::Get().GetGauge("durability.mode");
  return g;
}
obs::Counter* DegradedEntriesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.degraded_entries");
  return c;
}
obs::Counter* DegradedRestoresCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.degraded_restores");
  return c;
}

// Telemetry segment volume: bytes appended (frames included) and whole-file
// rewrites of a dirty segment. Deterministic: they move with checkpoints and
// storage failures, not with the clock.
obs::Counter* SegmentAppendBytesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.segment_append_bytes");
  return c;
}
obs::Counter* SegmentRewritesCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durability.segment_rewrites");
  return c;
}

Status DegradedRefusal(const Status& reason) {
  return Status::FailedPrecondition(
      "degraded durability: deployments refused until the storage plane "
      "heals (" + reason.message() + "); call TryRestoreDurability");
}

// ---- The telemetry segment. telemetry.kea is an append-only framed file
// (common/journal.h) whose frame payloads are TelemetryStore::SerializeState
// blobs; a checkpoint's "records" section holds the prefix it covers.

/// A "records" section: the record count a checkpoint covers and the CRC32
/// of those records' encodings in store order, so frame boundaries do not
/// enter into it.
struct SegmentCoverage {
  uint64_t records = 0;
  uint32_t crc = 0;
};

template <typename Ar>
void Persist(Ar& ar, SegmentCoverage& coverage) {
  ar(coverage.records, coverage.crc);
}

/// telemetry.kea as Resume reads it, once: the image's intact frames, each
/// with the record count and running CRC before it, so checking a coverage
/// pair extends one CRC over at most one frame. A missing file or a wrong
/// magic has no intact frames.
class SegmentImage {
 public:
  explicit SegmentImage(std::string data) : data_(std::move(data)) {
    if (data_.size() < kFrameMagicBytes ||
        data_.compare(0, kFrameMagicBytes, kSegmentMagic) != 0) {
      return;
    }
    intact_end_ = ScanFrames(data_, [this](const char* payload, size_t size) {
      // A frame is a SerializeState blob: a u64 count, then that many
      // fixed-width records. Anything else ends the intact prefix.
      if (size < sizeof(uint64_t)) return false;
      uint64_t count = 0;
      for (int i = 7; i >= 0; --i) {
        count = count << 8 | static_cast<unsigned char>(payload[i]);
      }
      const size_t bytes = size - sizeof(uint64_t);
      if (bytes % telemetry::kMachineHourRecordBytes != 0 ||
          bytes / telemetry::kMachineHourRecordBytes != count) {
        return false;
      }
      const char* first = payload + sizeof(uint64_t);
      frames_.push_back({static_cast<size_t>(first - data_.data()), records_,
                         count, crc_});
      records_ += count;
      crc_ = Crc32Extend(crc_, first, bytes);
      return true;
    });
  }

  /// OK when the intact frames reproduce `coverage`.
  Status Check(const SegmentCoverage& coverage) const {
    if (coverage.records > records_) {
      return Status::FailedPrecondition(
          "checkpoint covers " + std::to_string(coverage.records) +
          " telemetry records but telemetry.kea holds " +
          std::to_string(records_) + " intact — refusing to fabricate state");
    }
    if (PrefixCrc(coverage.records) != coverage.crc) {
      return Status::FailedPrecondition(
          "telemetry.kea's first " + std::to_string(coverage.records) +
          " records do not match the checkpoint's CRC — refusing to "
          "fabricate state");
    }
    return Status::OK();
  }

  /// Appends records [0, count) to `store`, one AppendState per frame.
  /// `count` must have passed Check.
  Status AppendPrefix(uint64_t count, telemetry::TelemetryStore* store) const {
    for (const Frame& frame : frames_) {
      if (frame.first >= count) break;
      uint64_t take = std::min(frame.count, count - frame.first);
      std::string blob = Encode(take);
      blob.append(data_, frame.offset,
                  take * telemetry::kMachineHourRecordBytes);
      KEA_RETURN_IF_ERROR(store->AppendState(blob));
    }
    return Status::OK();
  }

  /// True when the file is exactly the magic plus intact frames that end
  /// at record `count` — the only segment a session may append to.
  bool EndsAt(uint64_t count) const {
    return intact_end_ > 0 && intact_end_ == data_.size() && records_ == count;
  }

 private:
  struct Frame {
    size_t offset;   ///< Of the frame's first record encoding in data_.
    uint64_t first;  ///< Records in the frames before this one.
    uint64_t count;
    uint32_t crc_before;  ///< CRC32 of the encodings of records [0, first).
  };

  /// CRC32 of the encodings of records [0, count), count <= records_.
  uint32_t PrefixCrc(uint64_t count) const {
    if (count == records_) return crc_;
    // The frame holding record `count`: the last one starting at or before it.
    auto frame = std::upper_bound(
        frames_.begin(), frames_.end(), count,
        [](uint64_t n, const Frame& f) { return n < f.first; });
    --frame;
    return Crc32Extend(frame->crc_before, data_.data() + frame->offset,
                       (count - frame->first) *
                           telemetry::kMachineHourRecordBytes);
  }

  std::string data_;
  std::vector<Frame> frames_;
  size_t intact_end_ = 0;
  uint64_t records_ = 0;
  uint32_t crc_ = 0;
};

// ---- The checkpoint's "config" section: everything a session was
// constructed with, so Resume() needs only the directory.

struct DurableConfig {
  KeaSession::Config config;
  KeaSession::IngestionConfig ingestion;
  bool ingestion_enabled = false;
  KeaSession::FleetChaosConfig chaos;
  bool chaos_enabled = false;
  KeaSession::SelfHealingConfig healing;
  bool healing_enabled = false;
};

template <typename Ar>
void Persist(Ar& ar, DurableConfig& d) {
  KeaSession::Config& c = d.config;
  ar(c.machines, c.seed);

  sim::PerfModel::Params& p = c.perf_params;
  ar(p.cores_per_container, p.task_cpu_work, p.task_input_mb, p.task_temp_mb,
     p.interference, p.feature_speed_boost, p.feature_power_discount,
     p.power_elasticity, p.power_util_exponent, p.ssd_base_gb,
     p.ssd_gb_per_core_mean, p.ssd_gb_per_core_stddev, p.ram_base_gb,
     p.ram_gb_per_core_mean, p.ram_gb_per_core_stddev, p.nic_base_mbps,
     p.nic_mbps_per_core_mean, p.nic_mbps_per_core_stddev);

  sim::WorkloadSpec& ws = c.workload;
  ar(ws.base_demand_fraction, ws.diurnal_amplitude, ws.peak_hour,
     ws.weekend_factor, ws.demand_noise_sigma, ws.weekly_growth);
  ar.Seq(ws.task_types, [&ar](sim::TaskType& t) {
    ar(t.name, t.cpu_work_multiplier, t.input_mb_multiplier,
       t.temp_mb_multiplier, t.weight);
  });

  sim::ClusterSpec& cs = c.cluster;
  ar(cs.total_machines, cs.machines_per_rack, cs.sku_fractions,
     cs.baseline_max_containers, cs.baseline_max_queued, cs.sc2_fraction,
     cs.racks_per_subcluster);

  sim::FluidEngine::Options& eo = c.engine;
  ar(eo.seed, eo.placement_noise_sigma, eo.utilization_noise,
     eo.latency_noise_sigma, eo.data_noise_sigma, eo.redistribution_rounds,
     eo.failure_rate_per_hour, eo.mean_repair_hours);

  sim::FaultProfile& f = d.ingestion.faults;
  ar(d.ingestion_enabled, f.drop_rate, f.duplicate_rate, f.non_finite_rate,
     f.out_of_range_rate, f.outlier_rate, f.outlier_scale,
     f.stuck_machine_fraction, f.late_rate, f.max_late_hours,
     f.transient_error_rate);
  telemetry::IngestionPipeline::Options& po = d.ingestion.pipeline;
  ar(po.validate, po.deduplicate, po.max_lateness_hours,
     po.stuck_run_threshold, po.retry.max_attempts,
     po.retry.initial_backoff_ms, po.retry.backoff_multiplier,
     po.retry.max_backoff_ms, po.retry.jitter, po.retry.seed,
     d.ingestion.seed);

  sim::FleetFaultProfile& fp = d.chaos.profile;
  ar(d.chaos_enabled, fp.crash_rate_per_hour, fp.mean_repair_hours,
     fp.rack_outage_rate_per_hour, fp.mean_rack_outage_hours,
     fp.degrade_rate_per_hour, fp.degrade_severity, fp.recovery_per_hour,
     fp.permanent_loss_rate_per_hour, d.chaos.seed);

  ml::PageHinkleyDetector::Options& ph = d.healing.drift.page_hinkley;
  core::ModelHealth::Options& mh = d.healing.health;
  ar(d.healing_enabled, ph.delta, ph.lambda, ph.warmup, ph.min_stddev,
     ph.max_z, d.healing.drift.staleness_hours, mh.residual_tolerance,
     mh.residual_inflation, mh.min_baseline_error, mh.refit_delay_hours,
     mh.refit_lookback_hours, mh.holdout_hours, mh.validation_tolerance,
     mh.probation_rounds, mh.probation_margin_scale);
}

/// The checkpoint's "cluster" section: every machine's mutable config, in
/// id order. The fleet itself is rebuilt from the config section.
template <typename Ar>
void PersistMachineConfigs(Ar& ar, std::vector<sim::Machine>& machines) {
  ar.Count(machines.size(),
           "checkpoint cluster size does not match the rebuilt fleet");
  for (sim::Machine& m : machines) {
    ar(m.sc, m.max_containers, m.max_queued_containers, m.power_cap_fraction,
       m.feature_enabled);
  }
}

/// The checkpoint format of a snapshot's "format" section, or 0 for a
/// snapshot from before the section existed.
StatusOr<uint32_t> CheckpointFormat(const SnapshotReader& snapshot) {
  if (!snapshot.Has("format")) return 0u;
  KEA_ASSIGN_OR_RETURN(const std::string blob, snapshot.Section("format"));
  uint32_t format = 0;
  KEA_RETURN_IF_ERROR(Decode(blob, &format));
  return format;
}

// ---- ROUND_STARTED: the fit window and the plan. The journal, not a
// refit, is the authority on resume: the simulation clock has advanced into
// the rollout, so refitting would see a different window. kea_bench's
// traced pass writes this payload with its own copy of the layout and
// requires a byte-identical ledger, so the layout must not move.

struct RoundStart {
  sim::HourIndex start_hour = 0;
  sim::HourIndex fit_begin = 0;
  sim::HourIndex fit_end = 0;
  YarnConfigTuner::Plan plan;
};

template <typename Ar>
void Persist(Ar& ar, RoundStart& start) {
  ar(start.start_hour, start.fit_begin, start.fit_end, start.plan);
}

/// ROUND_FINISHED: the round's outcome (kea_bench writes it too).
struct RoundOutcome {
  core::GuardrailedRollout::Outcome outcome;
  int tripped_wave = -1;
  uint64_t machines_restored = 0;
};

template <typename Ar>
void Persist(Ar& ar, RoundOutcome& o) {
  ar.Enum(o.outcome, core::GuardrailedRollout::Outcome::kNoChange);
  ar(o.tripped_wave, o.machines_restored);
}

/// FABRIC_STARTED: the start hour and queue size.
using FabricStart = std::pair<sim::HourIndex, uint64_t>;

/// FABRIC_FINISHED: the run's report, flights aside.
struct FabricOutcome {
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t trips = 0;
  uint64_t max_concurrent = 0;
  uint64_t peak_flighted_machines = 0;
  sim::HourIndex end_hour = 0;
};

template <typename Ar>
void Persist(Ar& ar, FabricOutcome& o) {
  ar(o.admitted, o.rejected, o.trips, o.max_concurrent,
     o.peak_flighted_machines, o.end_hour);
}

/// The plan-sanity screen of every tuning round: a corrupted model never
/// reaches the fleet.
Status CheckPlanSane(const YarnConfigTuner::Plan& plan) {
  bool sane = std::isfinite(plan.predicted_capacity_gain) &&
              std::isfinite(plan.predicted_latency_before_s) &&
              std::isfinite(plan.predicted_latency_after_s);
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    sane = sane && rec.recommended_max_containers >= 0;
  }
  for (const auto& [key, value] : plan.lp_solution) {
    sane = sane && std::isfinite(value);
  }
  if (!sane) {
    return Status::FailedPrecondition(
        "refusing to deploy: plan contains non-finite or negative values");
  }
  return Status::OK();
}

}  // namespace

template <typename Ar>
void KeaSession::PersistMeta(Ar& ar, uint64_t& covered_seq) {
  ar(covered_seq, now_, has_round_, last_fit_begin_, last_fit_end_,
     last_deploy_hour_, round_count_);
  core::WhatIfEngine::Options& whatif = last_whatif_options_;
  ar.Enum(whatif.regressor, core::RegressorKind::kHuber);
  ar(whatif.min_observations, whatif.num_threads, model_epoch_, deploy_epoch_,
     fabric_count_, keep_generations_);
}

StatusOr<std::unique_ptr<KeaSession>> KeaSession::Create(const Config& config) {
  KEA_ASSIGN_OR_RETURN(sim::PerfModel perf_model,
                       sim::PerfModel::Create(sim::SkuCatalog::Default(),
                                              sim::DefaultSoftwareConfigs(),
                                              config.perf_params));
  KEA_ASSIGN_OR_RETURN(sim::WorkloadModel workload,
                       sim::WorkloadModel::Create(config.workload));

  // A unique_ptr keeps the engine's pointers into the session stable.
  std::unique_ptr<KeaSession> session(
      new KeaSession(std::move(perf_model), std::move(workload)));

  sim::ClusterSpec cluster_spec = config.cluster;
  if (cluster_spec.sku_fractions.empty()) {
    cluster_spec = sim::ClusterSpec::Default();
  }
  cluster_spec.total_machines = config.machines;
  KEA_ASSIGN_OR_RETURN(
      session->cluster_,
      sim::Cluster::Build(session->perf_model_.catalog(), cluster_spec));

  sim::FluidEngine::Options engine_options = config.engine;
  engine_options.seed = config.seed;
  session->engine_ = std::make_unique<sim::FluidEngine>(
      &session->perf_model_, &session->cluster_, &session->workload_,
      engine_options);
  session->config_ = config;
  return session;
}

Status KeaSession::Simulate(int hours) {
  KEA_TRACE_SPAN("session.simulate", {{"hours", std::to_string(hours)},
                                      {"start_hour", std::to_string(now_)}});
  SimulateCallsCounter()->Increment();
  if (hours > 0) SimulateHoursCounter()->Increment(static_cast<uint64_t>(hours));
  if (ingestion_ == nullptr) {
    KEA_RETURN_IF_ERROR(engine_->Run(now_, hours, &store_));
    now_ += hours;
  } else {
    // Hardened path: engine -> (fault injector) -> ingestion pipeline -> store.
    batch_.Clear();
    KEA_RETURN_IF_ERROR(engine_->Run(now_, hours, &batch_));
    if (fault_injector_ != nullptr) {
      KEA_RETURN_IF_ERROR(
          ingestion_->Ingest(fault_injector_->Corrupt(batch_.records())));
    } else {
      KEA_RETURN_IF_ERROR(ingestion_->Ingest(batch_.records()));
    }
    now_ += hours;
  }
  // Drift monitoring: fold the new telemetry into the detector's streams and
  // route any alarms into the ModelHealth breaker. Read-only on the store —
  // a clean stream leaves the session's behavior untouched.
  if (drift_ != nullptr) {
    const bool was_safe =
        model_health_ != nullptr && model_health_->in_safe_mode();
    std::vector<telemetry::DriftDetector::Alarm> alarms = drift_->CatchUp(store_);
    std::vector<telemetry::DriftDetector::Alarm> stale =
        drift_->CheckStaleness(now_);
    alarms.insert(alarms.end(), stale.begin(), stale.end());
    if (model_health_ != nullptr) {
      for (const telemetry::DriftDetector::Alarm& alarm : alarms) {
        model_health_->Trip("drift:" + alarm.metric, now_);
      }
      // A freshly opened breaker means the fitted models are no longer
      // trusted; anything cached against the current model_epoch is stale.
      if (!was_safe && model_health_->in_safe_mode()) ++model_epoch_;
    }
  }
  // Durable sessions checkpoint after every simulate so a crash between
  // control-plane actions loses no telemetry. Inside a journaled round the
  // per-step checkpoints (which also cover the step's ledger event) own this.
  // Outside one, a checkpoint covers durable_seq_, never steps whose effects
  // have not run (a resumed round's), which would replay, not re-drive.
  if (ledger_ != nullptr && !in_journaled_round_) {
    if (durability_mode_ == DurabilityMode::kDegraded) {
      // Auto-probe: a healed disk re-checkpoints here (covering this call's
      // telemetry); a still-broken one keeps the session degraded. Either
      // way the simulation itself succeeded.
      (void)TryRestoreDurability();
    } else {
      Status written = WriteCheckpoint(durable_seq_);
      if (!written.ok()) {
        // Injected crashes (kAborted) and logic errors propagate; a storage
        // plane failure degrades the session instead of losing the tick.
        if (!IsStorageFailure(written)) return written;
        EnterDegradedMode(written);
      }
    }
  }
  return Status::OK();
}

Status KeaSession::EnableIngestionPipeline(const IngestionConfig& config) {
  const int max_attempts = config.pipeline.retry.max_attempts;
  if (max_attempts < 1 || max_attempts > RetryPolicy::kMaxAttempts) {
    return Status::InvalidArgument(
        "retry.max_attempts is " + std::to_string(max_attempts) + "; it must lie in [1, " +
        std::to_string(RetryPolicy::kMaxAttempts) +
        "], or a retry's keyed stream would repeat the next write's");
  }
  telemetry::IngestionPipeline::Options pipeline_options = config.pipeline;
  pipeline_options.retry.seed = MixSeed(config.seed, 0x1e7e57);
  ingestion_ =
      std::make_unique<telemetry::IngestionPipeline>(&store_, pipeline_options);
  fault_injector_.reset();
  if (!config.faults.empty()) {
    fault_injector_ =
        std::make_unique<sim::TelemetryFaultInjector>(config.faults, config.seed);
    ingestion_->set_write_hook(fault_injector_->MakeWriteHook());
  }
  ingestion_config_ = config;
  ingestion_enabled_ = true;
  return Status::OK();
}

Status KeaSession::EnableFleetChaos(const FleetChaosConfig& config) {
  fleet_faults_ = std::make_unique<sim::FleetFaultInjector>(
      &cluster_, config.profile, config.seed);
  engine_->AttachFleetFaults(fleet_faults_.get());
  fleet_chaos_config_ = config;
  fleet_chaos_enabled_ = true;
  return Status::OK();
}

Status KeaSession::EnableSelfHealing(const SelfHealingConfig& config) {
  drift_ = std::make_unique<telemetry::DriftDetector>(config.drift);
  model_health_ = std::make_unique<core::ModelHealth>(config.health);
  self_healing_config_ = config;
  self_healing_enabled_ = true;
  return Status::OK();
}

size_t KeaSession::TotalDriftAlarms() const {
  if (drift_ == nullptr) return 0;
  size_t total = drift_->staleness_alarms();
  for (size_t count : drift_->alarm_counts()) total += count;
  return total;
}

Status KeaSession::EnableDurability(const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  return EnableDurability(options);
}

Status KeaSession::EnableDurability(const DurabilityOptions& options) {
  if (ledger_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  const std::string ledger_path = options.dir + kLedgerFile;
  // Events belong to an earlier session. Covering them would make this
  // session's rounds replay that session's steps, so only Resume continues
  // them. They are counted read-only: Open would repair a torn tail in
  // place, and a refusal leaves the directory as it found it. A ledger the
  // scrub cannot read (absent, empty, foreign) is Open's to judge.
  StatusOr<Journal::ScrubReport> existing =
      Journal::Scrub(ledger_path, /*repair=*/false);
  if (existing.ok() && existing->records > 0) {
    return Status::FailedPrecondition(
        ledger_path + " holds " + std::to_string(existing->records) +
        " events of an earlier session; KeaSession::Resume continues it");
  }
  KEA_ASSIGN_OR_RETURN(ledger_, core::DeploymentLedger::Open(ledger_path));
  durability_dir_ = options.dir;
  keep_generations_ = options.keep_generations;
  // A fresh segment, so a stale telemetry.kea left by another session is
  // replaced rather than appended to. The initial checkpoint covers the
  // empty ledger, so Resume() of a never-crashed directory is a clean no-op
  // restore.
  Status written = RewriteSegment();
  if (written.ok()) written = WriteCheckpoint(ledger_->next_seq());
  if (!written.ok()) {
    ledger_.reset();
    durability_dir_.clear();
    return written;
  }
  durability_mode_ = DurabilityMode::kDurable;
  DurabilityModeGauge()->Set(1);
  return Status::OK();
}

Status KeaSession::Checkpoint() {
  if (ledger_ == nullptr) {
    return Status::FailedPrecondition(
        "EnableDurability must be called before Checkpoint");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return Status::FailedPrecondition(
        "degraded durability (" + degraded_reason_.message() +
        "); call TryRestoreDurability before checkpointing");
  }
  return WriteCheckpoint(durable_seq_);
}

void KeaSession::EnterDegradedMode(const Status& reason) {
  if (durability_mode_ == DurabilityMode::kDegraded) return;
  durability_mode_ = DurabilityMode::kDegraded;
  degraded_reason_ = reason;
  DegradedEntriesCounter()->Increment();
  DurabilityModeGauge()->Set(2);
}

Status KeaSession::TryRestoreDurability() {
  if (durability_mode_ != DurabilityMode::kDegraded) {
    return Status::FailedPrecondition(
        "session is not in degraded-durability mode");
  }
  // In-memory progress is the authority: every event this session
  // acknowledged reached the in-memory ledger, so the rebuilt plane must
  // cover at least that much — a disk that lost acknowledged events is
  // refused rather than silently rewound (never fabricate state).
  const uint64_t covered = ledger_->next_seq();
  StatusOr<std::unique_ptr<core::DeploymentLedger>> reopened =
      core::DeploymentLedger::Open(durability_dir_ + kLedgerFile);
  if (!reopened.ok()) return reopened.status();
  if (reopened.value()->next_seq() < covered) {
    return Status::Internal(
        "ledger on disk holds " +
        std::to_string(reopened.value()->next_seq()) +
        " events but the session acknowledged " + std::to_string(covered) +
        " — refusing to restore a plane that lost acknowledged events");
  }
  // Orphan disk events (appends that persisted but were reported failed)
  // have seq >= covered, so the checkpoint below leaves them in the
  // re-drive region: the next round replays their recorded payloads with
  // the idempotency keys guaranteeing exactly-once effects.
  ledger_ = std::move(reopened).value();
  Status written = WriteCheckpoint(covered);
  if (!written.ok()) {
    if (IsStorageFailure(written)) degraded_reason_ = written;
    return written;
  }
  durability_mode_ = DurabilityMode::kDurable;
  degraded_reason_ = Status::OK();
  DegradedRestoresCounter()->Increment();
  DurabilityModeGauge()->Set(1);
  return Status::OK();
}

Status KeaSession::SyncSegment() {
  if (store_.size() < segment_records_) segment_dirty_ = true;
  if (segment_dirty_) {
    KEA_RETURN_IF_ERROR(RewriteSegment());
    SegmentRewritesCounter()->Increment();
    return Status::OK();
  }
  if (store_.size() == segment_records_) return Status::OK();
  const std::string blob = store_.SerializeState(segment_records_);
  uint32_t frame_crc = 0;
  Status appended = AppendFrame(durability_dir_ + kSegmentFile, blob,
                                "telemetry_segment.append.torn", &frame_crc);
  if (!appended.ok()) {
    // Some, all or none of the frame may be on disk ("durability
    // indeterminate" included): only a rewrite makes the segment known again.
    segment_dirty_ = true;
    return appended;
  }
  // The frame's CRC covers the count, then the records. CRC-32 is linear, so
  // swapping the count's CRC for the running one extends the running CRC
  // over the records without a second pass over them.
  const size_t count_bytes = sizeof(uint64_t);
  segment_crc_ = Crc32Combine(segment_crc_ ^ Crc32(blob.data(), count_bytes),
                              frame_crc, blob.size() - count_bytes);
  segment_records_ = store_.size();
  SegmentAppendBytesCounter()->Increment(kFrameHeaderBytes + blob.size());
  return Status::OK();
}

Status KeaSession::RewriteSegment() {
  std::string image(kSegmentMagic, kFrameMagicBytes);
  uint32_t crc = 0;
  if (!store_.empty()) {
    const std::string blob = store_.SerializeState();
    KEA_ASSIGN_OR_RETURN(const std::string frame, EncodeFrame(blob));
    image += frame;
    crc = Crc32(blob.data() + sizeof(uint64_t), blob.size() - sizeof(uint64_t));
  }
  KEA_RETURN_IF_ERROR(AtomicWriteFile(durability_dir_ + kSegmentFile, image));
  segment_records_ = store_.size();
  segment_crc_ = crc;
  segment_dirty_ = false;
  return Status::OK();
}

Status KeaSession::WriteCheckpoint(uint64_t covered_seq) {
  // Telemetry first: a snapshot never covers records the segment lacks.
  KEA_RETURN_IF_ERROR(SyncSegment());
  SnapshotWriter snapshot;
  snapshot.AddSection("format", Encode(kCheckpointFormat));

  StateWriter meta;
  PersistMeta(meta, covered_seq);
  snapshot.AddSection("meta", meta.Release());

  snapshot.AddSection(
      "config",
      Encode(DurableConfig{config_, ingestion_config_, ingestion_enabled_,
                           fleet_chaos_config_, fleet_chaos_enabled_,
                           self_healing_config_, self_healing_enabled_}));
  snapshot.AddSection("records",
                      Encode(SegmentCoverage{segment_records_, segment_crc_}));

  StateWriter cluster;
  PersistMachineConfigs(cluster, cluster_.mutable_machines());
  snapshot.AddSection("cluster", cluster.Release());

  snapshot.AddSection("engine", engine_->SerializeState());
  snapshot.AddSection("deployment", deployment_.SerializeState());
  // Optional components: a section exactly when the component exists.
  auto add = [&snapshot](const char* section, const auto* component) {
    if (component) snapshot.AddSection(section, component->SerializeState());
  };
  add("ingestion", ingestion_.get());
  add("fault_injector", fault_injector_.get());
  add("fleet_faults", fleet_faults_.get());
  add("drift", drift_.get());
  add("model_health", model_health_.get());

  KEA_RETURN_IF_ERROR(SnapshotGenerations::Write(
      snapshot, durability_dir_ + kCheckpointFile, keep_generations_));
  if (covered_seq > durable_seq_) durable_seq_ = covered_seq;
  return Status::OK();
}

StatusOr<std::unique_ptr<KeaSession>> KeaSession::Resume(const std::string& dir) {
  KEA_TRACE_SPAN("session.journal_replay");
  // The ledger first: its durable progress bounds which checkpoints are
  // admissible. A checkpoint claiming coverage beyond the ledger's tail
  // (a rotted or rewound ledger) would fabricate effects on replay, so the
  // validator rejects it and the restore falls back a generation.
  std::unique_ptr<core::DeploymentLedger> ledger;
  KEA_ASSIGN_OR_RETURN(ledger, core::DeploymentLedger::Open(dir + kLedgerFile));
  const uint64_t ledger_next = ledger->next_seq();
  // Then the telemetry segment, read once and never written. A checkpoint
  // is admissible only if it is of this build's format, the ledger holds
  // every event it covers and the segment's intact frames reproduce its
  // records pair.
  StatusOr<std::string> segment_bytes = ReadFileToString(dir + kSegmentFile);
  if (!segment_bytes.ok() &&
      segment_bytes.status().code() != StatusCode::kNotFound) {
    return segment_bytes.status();
  }
  const SegmentImage segment(segment_bytes.ok()
                                 ? std::move(segment_bytes).value()
                                 : std::string());
  SnapshotGenerations::Validator admissible =
      [ledger_next, &segment](const SnapshotReader& candidate) -> Status {
    // The format first: no other section of another layout is read.
    KEA_ASSIGN_OR_RETURN(const uint32_t format, CheckpointFormat(candidate));
    if (format != kCheckpointFormat) {
      return Status::InvalidArgument(
          "checkpoint is format " + std::to_string(format) +
          (format == 0 ? " (it has no 'format' section)" : "") +
          "; this build reads format " + std::to_string(kCheckpointFormat));
    }
    // The ledger coverage is the meta section's first field.
    KEA_ASSIGN_OR_RETURN(const std::string meta_blob, candidate.Section("meta"));
    StateReader meta(meta_blob);
    uint64_t covered = 0;
    meta(covered);
    if (!meta.ok()) return meta.Finish();
    if (covered > ledger_next) {
      return Status::FailedPrecondition(
          "checkpoint covers " + std::to_string(covered) +
          " ledger events but the ledger holds " +
          std::to_string(ledger_next) + " — refusing to fabricate state");
    }
    KEA_ASSIGN_OR_RETURN(const std::string records, candidate.Section("records"));
    SegmentCoverage coverage;
    KEA_RETURN_IF_ERROR(Decode(records, &coverage));
    return segment.Check(coverage);
  };
  KEA_ASSIGN_OR_RETURN(SnapshotGenerations::Restored restored,
                       SnapshotGenerations::RestoreLatestValid(
                           dir + kCheckpointFile, admissible));
  SnapshotReader& snapshot = restored.reader;

  KEA_ASSIGN_OR_RETURN(const std::string config_blob, snapshot.Section("config"));
  DurableConfig config;
  KEA_RETURN_IF_ERROR(Decode(config_blob, &config));

  KEA_ASSIGN_OR_RETURN(std::unique_ptr<KeaSession> session,
                       Create(config.config));
  if (config.ingestion_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableIngestionPipeline(config.ingestion));
  }
  if (config.chaos_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableFleetChaos(config.chaos));
  }
  if (config.healing_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableSelfHealing(config.healing));
  }

  std::string blob;
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("meta"));
  StateReader meta(blob);
  session->PersistMeta(meta, session->durable_seq_);
  KEA_RETURN_IF_ERROR(meta.Finish());

  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("records"));
  SegmentCoverage coverage;
  KEA_RETURN_IF_ERROR(Decode(blob, &coverage));
  KEA_RETURN_IF_ERROR(segment.AppendPrefix(coverage.records, &session->store_));
  session->segment_records_ = coverage.records;
  session->segment_crc_ = coverage.crc;
  session->segment_dirty_ = !segment.EndsAt(coverage.records);

  // Decoded into a copy; a drifted machine's SC goes through
  // SetSoftwareConfig, which rebuilds the group index.
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("cluster"));
  std::vector<sim::Machine>& live = session->cluster_.mutable_machines();
  std::vector<sim::Machine> machines = live;
  StateReader cluster(blob);
  PersistMachineConfigs(cluster, machines);
  KEA_RETURN_IF_ERROR(cluster.Finish());
  std::map<int, std::vector<int>> ids_by_sc;
  for (size_t i = 0; i < machines.size(); ++i) {
    if (machines[i].sc == live[i].sc) continue;
    ids_by_sc[machines[i].sc].push_back(machines[i].id);
    machines[i].sc = live[i].sc;
  }
  live = std::move(machines);
  for (const auto& [sc, ids] : ids_by_sc) {
    KEA_RETURN_IF_ERROR(session->cluster_.SetSoftwareConfig(ids, sc));
  }

  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("engine"));
  KEA_RETURN_IF_ERROR(session->engine_->RestoreState(blob));
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("deployment"));
  KEA_RETURN_IF_ERROR(session->deployment_.RestoreState(blob));
  // Optional components: the config enables one exactly when the layout
  // has its section.
  auto restore = [&snapshot](const char* section, auto* component) -> Status {
    if (snapshot.Has(section) != (component != nullptr)) {
      return Status::InvalidArgument(std::string("checkpoint's '") + section +
                                     "' section does not match its config");
    }
    if (component == nullptr) return Status::OK();
    KEA_ASSIGN_OR_RETURN(const std::string state, snapshot.Section(section));
    return component->RestoreState(state);
  };
  KEA_RETURN_IF_ERROR(restore("ingestion", session->ingestion_.get()));
  KEA_RETURN_IF_ERROR(restore("fault_injector", session->fault_injector_.get()));
  KEA_RETURN_IF_ERROR(restore("fleet_faults", session->fleet_faults_.get()));
  KEA_RETURN_IF_ERROR(restore("drift", session->drift_.get()));
  KEA_RETURN_IF_ERROR(restore("model_health", session->model_health_.get()));

  session->durability_dir_ = dir;
  session->ledger_ = std::move(ledger);
  session->durability_mode_ = DurabilityMode::kDurable;
  session->resume_generations_discarded_ = restored.discarded;
  DurabilityModeGauge()->Set(1);

  // Rebuild the validation engine for a completed round: the fit window and
  // options are checkpointed, the fit itself is deterministic, so the refit
  // matches the engine the crashed process held.
  if (session->has_round_ &&
      session->last_fit_end_ > session->last_fit_begin_) {
    KEA_ASSIGN_OR_RETURN(
        core::WhatIfEngine engine,
        core::WhatIfEngine::Fit(session->store_,
                                telemetry::HourRangeFilter(
                                    session->last_fit_begin_,
                                    session->last_fit_end_),
                                session->last_whatif_options_));
    session->last_engine_ =
        std::make_unique<core::WhatIfEngine>(std::move(engine));
  }
  return session;
}

Status KeaSession::FitWhatIfEngine(const core::WhatIfEngine::Options& options,
                                   int lookback_hours) {
  if (lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before fitting");
  }
  KEA_TRACE_SPAN("session.fit_whatif",
                 {{"lookback_hours", std::to_string(lookback_hours)}});
  sim::HourIndex begin = std::max(0, now_ - lookback_hours);
  KEA_ASSIGN_OR_RETURN(
      core::WhatIfEngine engine,
      core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                              options));
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  last_fit_begin_ = begin;
  last_fit_end_ = now_;
  last_whatif_options_ = options;
  ++model_epoch_;
  // Fitting is a model operation, not a deployment: in degraded mode it
  // still runs, it just cannot persist.
  if (ledger_ != nullptr && !in_journaled_round_ &&
      durability_mode_ != DurabilityMode::kDegraded) {
    Status written = WriteCheckpoint(durable_seq_);
    if (!written.ok()) {
      if (!IsStorageFailure(written)) return written;
      EnterDegradedMode(written);
    }
  }
  return Status::OK();
}

StatusOr<KeaSession::TuningRound> KeaSession::RunYarnTuningRound(
    const YarnConfigTuner::Options& options, int lookback_hours,
    int deploy_max_step) {
  if (model_health_ != nullptr && model_health_->in_safe_mode()) {
    return Status::FailedPrecondition(
        "model-health breaker is open; deployments refused "
        "(use RunGuardedTuningRound to drive the refit cycle)");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  GuardedRoundOptions round_options;
  round_options.tuner = options;
  round_options.lookback_hours = lookback_hours;
  round_options.rollout.deploy.max_step = deploy_max_step;
  TuningRound round;
  StatusOr<GuardedRound> ran = RunTunedRound(round_options, &round.applied);
  if (!ran.ok()) {
    if (IsStorageFailure(ran.status())) EnterDegradedMode(ran.status());
    return ran.status();
  }
  round.plan = std::move(ran->plan);
  round.fit_begin = ran->fit_begin;
  round.fit_end = ran->fit_end;
  return round;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunGuardedTuningRound(
    const GuardedRoundOptions& options) {
  // The durability breaker outranks everything: a degraded storage plane
  // refuses any round (even safe-mode rounds persist breaker state).
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  // While the model breaker is open the session holds the last known-good
  // config and only drives the refit cycle.
  StatusOr<GuardedRound> round =
      model_health_ != nullptr && model_health_->in_safe_mode()
          ? RunSafeModeRound(options)
          : RunTunedRound(options, /*unguarded=*/nullptr);
  if (!round.ok() && IsStorageFailure(round.status())) {
    // Journaled steps that already ran are on disk (or re-drivable);
    // degrade so nothing further reaches the fleet until the plane heals.
    EnterDegradedMode(round.status());
  }
  return round;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunSafeModeRound(
    const GuardedRoundOptions& options) {
  KEA_TRACE_SPAN("session.round", {{"kind", "safe_mode"}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  GuardedRound round;
  round.safe_mode = true;
  round.rollout.outcome = core::GuardrailedRollout::Outcome::kNoChange;
  round.fit_begin = last_fit_begin_;
  round.fit_end = last_fit_end_;
  if (model_health_->RefitDue(now_)) {
    round.refit_attempted = true;
    model_health_->BeginRefit();
    bool passed = AttemptRefit(options);
    model_health_->CompleteRefit(passed, now_);
    round.refit_passed = passed;
    if (passed && drift_ != nullptr) {
      // The post-drift regime is the new normal for every metric stream.
      drift_->Rearm();
    }
  }
  model_health_->NoteRound();
  round.health_state = core::ModelHealth::StateName(model_health_->state());
  round.drift_alarms = TotalDriftAlarms() - alarms_before;
  if (ledger_ != nullptr) {
    // Safe-mode rounds deploy nothing, but a passed refit moved the fit
    // window and breaker state — persist them.
    KEA_RETURN_IF_ERROR(WriteCheckpoint(durable_seq_));
  }
  return round;
}

bool KeaSession::AttemptRefit(const GuardedRoundOptions& options) {
  const core::ModelHealth::Options& health = model_health_->options();
  // Fit strictly post-drift telemetry: [max(trip, now - lookback), holdout),
  // with the stream's newest tail held out as the validation gate.
  sim::HourIndex holdout_begin = now_ - health.holdout_hours;
  sim::HourIndex fit_begin = std::max(0, now_ - health.refit_lookback_hours);
  if (model_health_->tripped_at() > fit_begin) {
    fit_begin = model_health_->tripped_at();
  }
  if (holdout_begin <= fit_begin) return false;  // Not enough post-drift data.

  StatusOr<core::WhatIfEngine> fitted = core::WhatIfEngine::Fit(
      store_, telemetry::HourRangeFilter(fit_begin, holdout_begin),
      options.tuner.whatif);
  if (!fitted.ok()) return false;

  core::ModelValidator::Options validator_options;
  validator_options.tolerance = health.validation_tolerance;
  core::ModelValidator validator(validator_options);
  StatusOr<core::ValidationReport> report =
      validator.Validate(fitted.value(), store_,
                         telemetry::HourRangeFilter(holdout_begin, now_));
  if (!report.ok()) return false;
  if (!report.value().models_valid || !report.value().unmodeled_groups.empty()) {
    return false;
  }

  // Gate passed: the refit becomes the session's validation engine and the
  // new known-good fit window.
  last_engine_ =
      std::make_unique<core::WhatIfEngine>(std::move(fitted).value());
  has_round_ = true;
  last_fit_begin_ = fit_begin;
  last_fit_end_ = holdout_begin;
  last_deploy_hour_ = holdout_begin;
  last_whatif_options_ = options.tuner.whatif;
  ++model_epoch_;
  return true;
}

void KeaSession::FinishRoundHealth(size_t alarms_before, GuardedRound* round) {
  if (model_health_ == nullptr) return;
  // Residual tracking: replay the round's models against the telemetry that
  // accrued after its deployment. Residual inflation trips the breaker just
  // like a drift alarm.
  if (last_engine_ != nullptr && now_ > last_deploy_hour_) {
    core::ModelValidator validator{core::ModelValidator::Options{}};
    StatusOr<core::ValidationReport> report = validator.Validate(
        *last_engine_, store_,
        telemetry::HourRangeFilter(last_deploy_hour_, now_));
    if (report.ok()) {
      model_health_->ObserveValidation(report.value(), now_);
    }
  }
  model_health_->NoteRound();
  round->health_state = core::ModelHealth::StateName(model_health_->state());
  round->drift_alarms = TotalDriftAlarms() - alarms_before;
}

core::JournalContext KeaSession::JournalContextFor(int64_t run_number) {
  core::JournalContext context;
  context.ledger = ledger_.get();
  context.durable_seq = durable_seq_;
  context.round = static_cast<int>(run_number);
  context.checkpoint = [this](uint64_t covered_seq) {
    return WriteCheckpoint(covered_seq);
  };
  return context;
}

Status KeaSession::RefuseOtherCallsInFlight(JournaledCall caller) const {
  if (ledger_ == nullptr) return Status::OK();
  const std::string round = std::to_string(round_count_);
  const std::string fabric = std::to_string(fabric_count_);
  std::string busy;
  if (caller == JournaledCall::kGuardedRound) {
    // A round call continues ROUND_STARTED, not the other kind's steps.
    if (ledger_->Has("round/" + round + "/apply")) busy = "round " + round;
  } else if (caller == JournaledCall::kYarnRound) {
    if (ledger_->Has("r" + round + "/w0/started")) busy = "round " + round;
  } else if (ledger_->Has("round/" + round + "/started")) {
    busy = "round " + round;
  }
  const core::DeploymentLedger::Event* rollback =
      ledger_->Find("rollback/" + round);
  if (caller != JournaledCall::kRollback && rollback != nullptr &&
      rollback->seq >= durable_seq_) {
    busy = "the rollback after round " + round;
  }
  if (caller != JournaledCall::kFabric &&
      ledger_->Has("fab/" + fabric + "/started")) {
    busy = "fabric run " + fabric;
  }
  if (busy.empty()) return Status::OK();
  return Status::FailedPrecondition(
      busy + " is in flight; repeat the call that journaled it first");
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunTunedRound(
    const GuardedRoundOptions& options,
    std::vector<core::AppliedChange>* unguarded) {
  using EventType = core::DeploymentLedger::EventType;
  const int64_t round_number = round_count_;
  const std::string number = std::to_string(round_number);
  const std::string round_key = "round/" + number;
  core::JournalContext context = JournalContextFor(round_number);
  core::JournalContext* journal = ledger_ != nullptr ? &context : nullptr;
  KEA_TRACE_SPAN("session.round",
                 {{"kind", unguarded != nullptr ? "yarn"
                           : journal != nullptr ? "durable"
                                                : "guarded"},
                  {"round", number},
                  {"lookback_hours", std::to_string(options.lookback_hours)}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  KEA_RETURN_IF_ERROR(RefuseOtherCallsInFlight(
      unguarded != nullptr ? JournaledCall::kYarnRound
                           : JournaledCall::kGuardedRound));
  GuardedRound round;
  sim::HourIndex start_hour = 0;
  std::unique_ptr<core::WhatIfEngine> fresh_engine;

  // --- ROUND_STARTED: the fit window and the full plan, journaled before any
  // machine is touched. On resume the journaled plan is the authority — the
  // clock has advanced into the rollout, so a refit would see a different
  // window and could propose a different plan.
  std::string payload;
  KEA_RETURN_IF_ERROR(core::JournaledStep(
      journal, EventType::kRoundStarted, round_key + "/started",
      "session.round_started",
      [&]() -> StatusOr<std::string> {
        if (options.lookback_hours <= 0) {
          return Status::InvalidArgument("lookback_hours must be positive");
        }
        if (now_ == 0) {
          return Status::FailedPrecondition("simulate telemetry before tuning");
        }
        sim::HourIndex begin = std::max(0, now_ - options.lookback_hours);
        KEA_ASSIGN_OR_RETURN(
            core::WhatIfEngine engine,
            core::WhatIfEngine::Fit(store_,
                                    telemetry::HourRangeFilter(begin, now_),
                                    options.tuner.whatif));
        YarnConfigTuner::Plan plan;
        KEA_ASSIGN_OR_RETURN(
            plan, YarnConfigTuner(options.tuner).ProposeFromEngine(engine, cluster_));
        // A corrupted model never reaches the fleet: any non-finite
        // prediction or recommendation aborts before the first canary
        // machine is touched, as do deploy options the clamp refuses.
        KEA_RETURN_IF_ERROR(CheckPlanSane(plan));
        KEA_RETURN_IF_ERROR(core::DeploymentModule::Clamp(
                                plan.recommendations, options.rollout.deploy)
                                .status());
        fresh_engine = std::make_unique<core::WhatIfEngine>(std::move(engine));
        return Encode(RoundStart{now_, begin, now_, std::move(plan)});
      },
      nullptr, &payload));
  RoundStart started;
  KEA_RETURN_IF_ERROR(Decode(payload, &started));
  start_hour = started.start_hour;
  round.fit_begin = started.fit_begin;
  round.fit_end = started.fit_end;
  round.plan = std::move(started.plan);

  if (unguarded != nullptr) {
    // --- APPLY, in place of the waves: the clamped batch, journaled before
    // any machine is touched. The effect applies the recorded batch, whatever
    // max_step a resuming call passes. It converged unless nothing changed.
    KEA_RETURN_IF_ERROR(core::JournaledStep(
        journal, EventType::kApply, round_key + "/apply", "session.apply",
        [&]() -> StatusOr<std::string> {
          KEA_ASSIGN_OR_RETURN(std::vector<core::AppliedChange> batch,
                               core::DeploymentModule::Clamp(
                                   round.plan.recommendations,
                                   options.rollout.deploy));
          return Encode(batch);
        },
        [&](const std::string& recorded) -> Status {
          KEA_RETURN_IF_ERROR(Decode(recorded, unguarded));
          return deployment_.Apply(*unguarded, &cluster_);
        },
        &payload));
    KEA_RETURN_IF_ERROR(Decode(payload, unguarded));
    round.rollout.outcome = unguarded->empty()
                                ? core::GuardrailedRollout::Outcome::kNoChange
                                : core::GuardrailedRollout::Outcome::kConverged;
  } else {
    // --- Waves: the rollout runs each step through the same journal
    // context, checkpointing after every one. Simulate() must not checkpoint
    // meanwhile — a mid-observation checkpoint would claim coverage of a step
    // whose verdict is not yet journaled. During probation (RE-ARMED) the
    // guardrails are tightened — the freshly refitted model gets less
    // headroom; EffectiveGuardrails is the identity while HEALTHY.
    core::GuardrailedRollout::Options rollout_options = options.rollout;
    if (model_health_ != nullptr) {
      rollout_options.guardrails =
          model_health_->EffectiveGuardrails(rollout_options.guardrails);
    }
    in_journaled_round_ = true;
    StatusOr<core::GuardrailedRollout::Report> executed =
        core::GuardrailedRollout(rollout_options)
            .Execute(round.plan.recommendations, &cluster_, &store_, start_hour,
                     [this](int hours) { return Simulate(hours); }, journal);
    in_journaled_round_ = false;
    if (!executed.ok()) return executed.status();
    round.rollout = std::move(executed).value();
  }

  // --- ROUND_FINISHED: seal the outcome so the next round gets a new key.
  // The effect is the round's bookkeeping, so the checkpoint covering the
  // step holds the completed round; only journaled rounds are counted. A
  // converged rollout supersedes the batch an unguarded round left pending;
  // a rolled-back or no-change one left the fleet, and the batch, as it was.
  KEA_RETURN_IF_ERROR(core::JournaledStep(
      journal, EventType::kRoundFinished, round_key + "/finished",
      "session.round_finished",
      [&] {
        return Encode(RoundOutcome{round.rollout.outcome,
                                   round.rollout.tripped_wave,
                                   round.rollout.machines_restored});
      },
      [&](const std::string&) {
        if (journal != nullptr) round_count_ = round_number + 1;
        has_round_ = true;
        last_fit_begin_ = round.fit_begin;
        last_fit_end_ = round.fit_end;
        last_deploy_hour_ = start_hour;
        last_whatif_options_ = options.tuner.whatif;
        if (unguarded == nullptr &&
            round.rollout.outcome ==
                core::GuardrailedRollout::Outcome::kConverged) {
          deployment_.SupersedePendingBatch();
        }
        return Status::OK();
      },
      &payload));

  ++model_epoch_;
  // kNoChange rounds never touch a machine; anything else changed the
  // fleet's applied configuration at least transiently.
  if (round.rollout.outcome != core::GuardrailedRollout::Outcome::kNoChange) {
    ++deploy_epoch_;
  }
  if (fresh_engine != nullptr) {
    last_engine_ = std::move(fresh_engine);
  } else {
    // Resumed round: refit over the journaled window. The filter pins the
    // window, so the post-deploy telemetry that has accrued since does not
    // perturb the fit — the engine matches the uninterrupted run's.
    KEA_ASSIGN_OR_RETURN(
        core::WhatIfEngine engine,
        core::WhatIfEngine::Fit(
            store_,
            telemetry::HourRangeFilter(round.fit_begin, round.fit_end),
            options.tuner.whatif));
    last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  }
  if (unguarded != nullptr) return round;
  FinishRoundHealth(alarms_before, &round);
  if (journal != nullptr && self_healing_enabled_) {
    // Persist the post-round breaker/residual state; without this a crash
    // here would resume with a pre-round ModelHealth.
    KEA_RETURN_IF_ERROR(WriteCheckpoint(durable_seq_));
  }
  return round;
}

namespace {

obs::Counter* FabricRunsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("session.fabric_runs");
  return c;
}

/// Wires the session's fleet-fault injector into the fabric's per-arm
/// down-hours attribution unless the caller supplied an accessor.
void WireDownHours(const sim::FleetFaultInjector* faults,
                   core::ExperimentFabric::Options* options) {
  if (options->down_hours || faults == nullptr) return;
  options->down_hours = [faults](const std::vector<int>& machine_ids) {
    return faults->DownHours(machine_ids);
  };
}

}  // namespace

StatusOr<core::ExperimentFabric::Report> KeaSession::RunExperimentFabric(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before flighting");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  StatusOr<core::ExperimentFabric::Report> report = RunFlights(requests, options);
  if (!report.ok() && IsStorageFailure(report.status())) {
    EnterDegradedMode(report.status());
  }
  return report;
}

StatusOr<core::ExperimentFabric::Report> KeaSession::RunFlights(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  using EventType = core::DeploymentLedger::EventType;
  const int64_t fabric_number = fabric_count_;
  const std::string fabric_key = "fab/" + std::to_string(fabric_number);
  core::JournalContext context = JournalContextFor(fabric_number);
  core::JournalContext* journal = ledger_ != nullptr ? &context : nullptr;
  KEA_TRACE_SPAN("session.fabric",
                 {{"kind", journal != nullptr ? "durable" : "plain"},
                  {"fabric", std::to_string(fabric_number)},
                  {"requests", std::to_string(requests.size())}});
  FabricRunsCounter()->Increment();
  KEA_RETURN_IF_ERROR(RefuseOtherCallsInFlight(JournaledCall::kFabric));
  // A queue the fabric would refuse is refused before it is sealed: a sealed
  // queue holds the fabric in flight until a call with the same queue runs.
  core::ExperimentFabric::Options fabric_options = options.fabric;
  WireDownHours(fleet_faults_.get(), &fabric_options);
  KEA_RETURN_IF_ERROR(core::ExperimentFabric::Validate(
      requests, fabric_options, cluster_));

  // --- FABRIC_STARTED: seal the start hour and queue size before any flight
  // is touched. On resume the journaled start hour is the authority — the
  // clock has advanced into the run.
  std::string payload;
  KEA_RETURN_IF_ERROR(core::JournaledStep(
      journal, EventType::kFabricStarted, fabric_key + "/started",
      "session.fabric_started",
      [&] { return Encode(FabricStart{now_, requests.size()}); },
      nullptr, &payload));
  FabricStart started;
  KEA_RETURN_IF_ERROR(Decode(payload, &started));
  const auto [start_hour, queue_size] = started;
  if (queue_size != requests.size()) {
    return Status::FailedPrecondition(
        "resumed fabric run " + std::to_string(fabric_number) + " had " +
        std::to_string(queue_size) + " requests, got " +
        std::to_string(requests.size()) + " — resume must pass the same queue");
  }

  // --- Flights: the fabric runs each step through the same journal context
  // under "fab<n>/..." keys, checkpointing after every one. Simulate() must
  // not checkpoint meanwhile (same contract as guarded rounds).
  in_journaled_round_ = true;
  StatusOr<core::ExperimentFabric::Report> executed =
      core::ExperimentFabric(fabric_options)
          .Run(requests, &cluster_, &store_, start_hour,
               [this](int hours) { return Simulate(hours); }, journal);
  in_journaled_round_ = false;
  if (!executed.ok()) return executed.status();
  core::ExperimentFabric::Report report = std::move(executed).value();

  // --- FABRIC_FINISHED: seal the outcome so the next run gets new keys. The
  // effect counts the run before the checkpoint, so its completion is part
  // of the durable state the checkpoint claims to cover.
  KEA_RETURN_IF_ERROR(core::JournaledStep(
      journal, EventType::kFabricFinished, fabric_key + "/finished",
      "session.fabric_finished",
      [&] {
        return Encode(FabricOutcome{report.admitted, report.rejected,
                                    report.trips, report.max_concurrent,
                                    report.peak_flighted_machines,
                                    report.end_hour});
      },
      [&](const std::string&) {
        if (journal != nullptr) fabric_count_ = fabric_number + 1;
        return Status::OK();
      },
      &payload));
  // Flights patched and restored machine config; anything cached against the
  // previous deploy epoch saw a fleet that no longer exists.
  if (report.admitted > 0) ++deploy_epoch_;
  return report;
}

StatusOr<core::ValidationReport> KeaSession::ValidateModels(
    const core::ModelValidator::Options& options) const {
  if (!has_round_) {
    return Status::FailedPrecondition("no tuning round to validate");
  }
  if (now_ <= last_deploy_hour_) {
    return Status::FailedPrecondition(
        "simulate post-deployment telemetry before validating");
  }
  core::ModelValidator validator(options);
  return validator.Validate(*last_engine_, store_,
                            telemetry::HourRangeFilter(last_deploy_hour_, now_));
}

Status KeaSession::RollbackLastDeployment() {
  using EventType = core::DeploymentLedger::EventType;
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  if (!deployment_.has_pending_batch()) {
    // Never applied, rolled back or superseded: nothing to journal.
    return Status::FailedPrecondition("nothing to roll back");
  }
  KEA_RETURN_IF_ERROR(RefuseOtherCallsInFlight(JournaledCall::kRollback));
  const std::string rounds = std::to_string(round_count_);
  // --- MODULE_ROLLBACK: the pending batch, journaled before any machine is
  // touched; the effect undoes the recorded batch. One rollback at most takes
  // effect between two rounds, so the completed-round count keys it.
  core::JournalContext context = JournalContextFor(round_count_);
  std::string payload;
  Status status = core::JournaledStep(
      ledger_ != nullptr ? &context : nullptr, EventType::kModuleRollback,
      "rollback/" + rounds, "session.rollback",
      [&] { return Encode(deployment_.pending_batch()); },
      [&](const std::string& recorded) -> Status {
        std::vector<core::AppliedChange> batch;
        KEA_RETURN_IF_ERROR(Decode(recorded, &batch));
        return deployment_.Undo(batch, &cluster_);
      },
      &payload);
  if (!status.ok()) {
    if (IsStorageFailure(status)) EnterDegradedMode(status);
    return status;
  }
  ++deploy_epoch_;
  return Status::OK();
}

StatusOr<CapacityConverter::Report> KeaSession::EstimateCapacityValue(
    const CapacityConverter::Options& options) const {
  if (!has_round_) {
    return Status::FailedPrecondition("no tuning round to value");
  }
  if (now_ <= last_deploy_hour_) {
    return Status::FailedPrecondition(
        "simulate post-deployment telemetry before valuation");
  }
  CapacityConverter converter(options);
  return converter.FromWindows(
      store_, telemetry::HourRangeFilter(last_fit_begin_, last_deploy_hour_),
      telemetry::HourRangeFilter(last_deploy_hour_, now_));
}

}  // namespace kea::apps
