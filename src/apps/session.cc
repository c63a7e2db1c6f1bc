#include "apps/session.h"

#include <cmath>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/crash_point.h"
#include "common/io.h"
#include "common/journal.h"
#include "common/snapshot.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "telemetry/perf_monitor.h"

namespace kea::apps {
namespace {

constexpr char kLedgerFile[] = "/ledger.kea";
constexpr char kCheckpointFile[] = "/checkpoint.kea";

// Deterministic session-level counters: logical calls and simulated hours, not
// wall clock. The durable.step_* counters classify each resumed-round step the
// same way the journaled rollout does, so a resumed run's step mix is visible
// in one place.
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
obs::Counter* StepReplayedCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_replayed");
  return c;
}
obs::Counter* StepRedrivenCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_redriven");
  return c;
}
obs::Counter* StepFreshCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("durable.step_fresh");
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

Status DegradedRefusal(const Status& reason) {
  return Status::FailedPrecondition(
      "degraded durability: deployments refused until the storage plane "
      "heals (" + reason.message() + "); call TryRestoreDurability");
}

// ---- Bit-exact codecs for the checkpoint's "config" section. Everything a
// session was constructed with goes in, so Resume() needs only the directory.

void EncodeConfig(const KeaSession::Config& config,
                  const KeaSession::IngestionConfig& ingestion,
                  bool ingestion_enabled,
                  const KeaSession::FleetChaosConfig& chaos, bool chaos_enabled,
                  const KeaSession::SelfHealingConfig& healing,
                  bool healing_enabled, StateWriter* w) {
  w->PutInt(config.machines);
  w->PutU64(config.seed);

  const sim::PerfModel::Params& p = config.perf_params;
  const double perf[] = {p.cores_per_container, p.task_cpu_work, p.task_input_mb,
                         p.task_temp_mb,        p.interference,
                         p.feature_speed_boost, p.feature_power_discount,
                         p.power_elasticity,    p.power_util_exponent,
                         p.ssd_base_gb,         p.ssd_gb_per_core_mean,
                         p.ssd_gb_per_core_stddev, p.ram_base_gb,
                         p.ram_gb_per_core_mean, p.ram_gb_per_core_stddev,
                         p.nic_base_mbps,       p.nic_mbps_per_core_mean,
                         p.nic_mbps_per_core_stddev};
  for (double v : perf) w->PutDouble(v);

  const sim::WorkloadSpec& ws = config.workload;
  w->PutDouble(ws.base_demand_fraction);
  w->PutDouble(ws.diurnal_amplitude);
  w->PutDouble(ws.peak_hour);
  w->PutDouble(ws.weekend_factor);
  w->PutDouble(ws.demand_noise_sigma);
  w->PutDouble(ws.weekly_growth);
  w->PutU64(ws.task_types.size());
  for (const sim::TaskType& t : ws.task_types) {
    w->PutString(t.name);
    w->PutDouble(t.cpu_work_multiplier);
    w->PutDouble(t.input_mb_multiplier);
    w->PutDouble(t.temp_mb_multiplier);
    w->PutDouble(t.weight);
  }

  const sim::ClusterSpec& cs = config.cluster;
  w->PutInt(cs.total_machines);
  w->PutInt(cs.machines_per_rack);
  w->PutU64(cs.sku_fractions.size());
  for (double v : cs.sku_fractions) w->PutDouble(v);
  w->PutU64(cs.baseline_max_containers.size());
  for (int v : cs.baseline_max_containers) w->PutInt(v);
  w->PutInt(cs.baseline_max_queued);
  w->PutDouble(cs.sc2_fraction);
  w->PutInt(cs.racks_per_subcluster);

  const sim::FluidEngine::Options& eo = config.engine;
  w->PutU64(eo.seed);
  w->PutDouble(eo.placement_noise_sigma);
  w->PutDouble(eo.utilization_noise);
  w->PutDouble(eo.latency_noise_sigma);
  w->PutDouble(eo.data_noise_sigma);
  w->PutInt(eo.redistribution_rounds);
  w->PutDouble(eo.failure_rate_per_hour);
  w->PutDouble(eo.mean_repair_hours);

  w->PutBool(ingestion_enabled);
  const sim::FaultProfile& f = ingestion.faults;
  w->PutDouble(f.drop_rate);
  w->PutDouble(f.duplicate_rate);
  w->PutDouble(f.non_finite_rate);
  w->PutDouble(f.out_of_range_rate);
  w->PutDouble(f.outlier_rate);
  w->PutDouble(f.outlier_scale);
  w->PutDouble(f.stuck_machine_fraction);
  w->PutDouble(f.late_rate);
  w->PutInt(f.max_late_hours);
  w->PutDouble(f.transient_error_rate);
  const telemetry::IngestionPipeline::Options& po = ingestion.pipeline;
  w->PutBool(po.validate);
  w->PutBool(po.deduplicate);
  w->PutInt(po.max_lateness_hours);
  w->PutInt(po.stuck_run_threshold);
  w->PutInt(po.retry.max_attempts);
  w->PutDouble(po.retry.initial_backoff_ms);
  w->PutDouble(po.retry.backoff_multiplier);
  w->PutDouble(po.retry.max_backoff_ms);
  w->PutDouble(po.retry.jitter);
  w->PutU64(po.retry.seed);
  w->PutU64(ingestion.seed);

  // Fleet chaos + self-healing (appended after the PR-4 layout; DecodeConfig
  // treats their absence as "not enabled" so older checkpoints still load).
  w->PutBool(chaos_enabled);
  const sim::FleetFaultProfile& fp = chaos.profile;
  w->PutDouble(fp.crash_rate_per_hour);
  w->PutDouble(fp.mean_repair_hours);
  w->PutDouble(fp.rack_outage_rate_per_hour);
  w->PutDouble(fp.mean_rack_outage_hours);
  w->PutDouble(fp.degrade_rate_per_hour);
  w->PutDouble(fp.degrade_severity);
  w->PutDouble(fp.recovery_per_hour);
  w->PutDouble(fp.permanent_loss_rate_per_hour);
  w->PutU64(chaos.seed);

  w->PutBool(healing_enabled);
  const ml::PageHinkleyDetector::Options& ph = healing.drift.page_hinkley;
  w->PutDouble(ph.delta);
  w->PutDouble(ph.lambda);
  w->PutInt(ph.warmup);
  w->PutDouble(ph.min_stddev);
  w->PutDouble(ph.max_z);
  w->PutInt(healing.drift.staleness_hours);
  const core::ModelHealth::Options& mh = healing.health;
  w->PutDouble(mh.residual_tolerance);
  w->PutDouble(mh.residual_inflation);
  w->PutDouble(mh.min_baseline_error);
  w->PutInt(mh.refit_delay_hours);
  w->PutInt(mh.refit_lookback_hours);
  w->PutInt(mh.holdout_hours);
  w->PutDouble(mh.validation_tolerance);
  w->PutInt(mh.probation_rounds);
  w->PutDouble(mh.probation_margin_scale);
}

Status DecodeConfig(const std::string& blob, KeaSession::Config* config,
                    KeaSession::IngestionConfig* ingestion,
                    bool* ingestion_enabled,
                    KeaSession::FleetChaosConfig* chaos, bool* chaos_enabled,
                    KeaSession::SelfHealingConfig* healing,
                    bool* healing_enabled) {
  StateReader r(blob);
  KEA_RETURN_IF_ERROR(r.GetInt(&config->machines));
  KEA_RETURN_IF_ERROR(r.GetU64(&config->seed));

  sim::PerfModel::Params& p = config->perf_params;
  double* perf[] = {&p.cores_per_container, &p.task_cpu_work, &p.task_input_mb,
                    &p.task_temp_mb,        &p.interference,
                    &p.feature_speed_boost, &p.feature_power_discount,
                    &p.power_elasticity,    &p.power_util_exponent,
                    &p.ssd_base_gb,         &p.ssd_gb_per_core_mean,
                    &p.ssd_gb_per_core_stddev, &p.ram_base_gb,
                    &p.ram_gb_per_core_mean, &p.ram_gb_per_core_stddev,
                    &p.nic_base_mbps,       &p.nic_mbps_per_core_mean,
                    &p.nic_mbps_per_core_stddev};
  for (double* v : perf) KEA_RETURN_IF_ERROR(r.GetDouble(v));

  sim::WorkloadSpec& ws = config->workload;
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.base_demand_fraction));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.diurnal_amplitude));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.peak_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.weekend_factor));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.demand_noise_sigma));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ws.weekly_growth));
  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  ws.task_types.assign(count, sim::TaskType{});
  for (sim::TaskType& t : ws.task_types) {
    KEA_RETURN_IF_ERROR(r.GetString(&t.name));
    KEA_RETURN_IF_ERROR(r.GetDouble(&t.cpu_work_multiplier));
    KEA_RETURN_IF_ERROR(r.GetDouble(&t.input_mb_multiplier));
    KEA_RETURN_IF_ERROR(r.GetDouble(&t.temp_mb_multiplier));
    KEA_RETURN_IF_ERROR(r.GetDouble(&t.weight));
  }

  sim::ClusterSpec& cs = config->cluster;
  KEA_RETURN_IF_ERROR(r.GetInt(&cs.total_machines));
  KEA_RETURN_IF_ERROR(r.GetInt(&cs.machines_per_rack));
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  cs.sku_fractions.assign(count, 0.0);
  for (double& v : cs.sku_fractions) KEA_RETURN_IF_ERROR(r.GetDouble(&v));
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  cs.baseline_max_containers.assign(count, 0);
  for (int& v : cs.baseline_max_containers) KEA_RETURN_IF_ERROR(r.GetInt(&v));
  KEA_RETURN_IF_ERROR(r.GetInt(&cs.baseline_max_queued));
  KEA_RETURN_IF_ERROR(r.GetDouble(&cs.sc2_fraction));
  KEA_RETURN_IF_ERROR(r.GetInt(&cs.racks_per_subcluster));

  sim::FluidEngine::Options& eo = config->engine;
  KEA_RETURN_IF_ERROR(r.GetU64(&eo.seed));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.placement_noise_sigma));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.utilization_noise));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.latency_noise_sigma));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.data_noise_sigma));
  KEA_RETURN_IF_ERROR(r.GetInt(&eo.redistribution_rounds));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.failure_rate_per_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eo.mean_repair_hours));

  KEA_RETURN_IF_ERROR(r.GetBool(ingestion_enabled));
  sim::FaultProfile& f = ingestion->faults;
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.drop_rate));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.duplicate_rate));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.non_finite_rate));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.out_of_range_rate));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.outlier_rate));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.outlier_scale));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.stuck_machine_fraction));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.late_rate));
  KEA_RETURN_IF_ERROR(r.GetInt(&f.max_late_hours));
  KEA_RETURN_IF_ERROR(r.GetDouble(&f.transient_error_rate));
  telemetry::IngestionPipeline::Options& po = ingestion->pipeline;
  KEA_RETURN_IF_ERROR(r.GetBool(&po.validate));
  KEA_RETURN_IF_ERROR(r.GetBool(&po.deduplicate));
  KEA_RETURN_IF_ERROR(r.GetInt(&po.max_lateness_hours));
  KEA_RETURN_IF_ERROR(r.GetInt(&po.stuck_run_threshold));
  KEA_RETURN_IF_ERROR(r.GetInt(&po.retry.max_attempts));
  KEA_RETURN_IF_ERROR(r.GetDouble(&po.retry.initial_backoff_ms));
  KEA_RETURN_IF_ERROR(r.GetDouble(&po.retry.backoff_multiplier));
  KEA_RETURN_IF_ERROR(r.GetDouble(&po.retry.max_backoff_ms));
  KEA_RETURN_IF_ERROR(r.GetDouble(&po.retry.jitter));
  KEA_RETURN_IF_ERROR(r.GetU64(&po.retry.seed));
  KEA_RETURN_IF_ERROR(r.GetU64(&ingestion->seed));

  // Pre-chaos checkpoints end here.
  *chaos_enabled = false;
  *healing_enabled = false;
  if (r.AtEnd()) return Status::OK();

  KEA_RETURN_IF_ERROR(r.GetBool(chaos_enabled));
  sim::FleetFaultProfile& fp = chaos->profile;
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.crash_rate_per_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.mean_repair_hours));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.rack_outage_rate_per_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.mean_rack_outage_hours));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.degrade_rate_per_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.degrade_severity));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.recovery_per_hour));
  KEA_RETURN_IF_ERROR(r.GetDouble(&fp.permanent_loss_rate_per_hour));
  KEA_RETURN_IF_ERROR(r.GetU64(&chaos->seed));

  KEA_RETURN_IF_ERROR(r.GetBool(healing_enabled));
  ml::PageHinkleyDetector::Options& ph = healing->drift.page_hinkley;
  KEA_RETURN_IF_ERROR(r.GetDouble(&ph.delta));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ph.lambda));
  KEA_RETURN_IF_ERROR(r.GetInt(&ph.warmup));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ph.min_stddev));
  KEA_RETURN_IF_ERROR(r.GetDouble(&ph.max_z));
  KEA_RETURN_IF_ERROR(r.GetInt(&healing->drift.staleness_hours));
  core::ModelHealth::Options& mh = healing->health;
  KEA_RETURN_IF_ERROR(r.GetDouble(&mh.residual_tolerance));
  KEA_RETURN_IF_ERROR(r.GetDouble(&mh.residual_inflation));
  KEA_RETURN_IF_ERROR(r.GetDouble(&mh.min_baseline_error));
  KEA_RETURN_IF_ERROR(r.GetInt(&mh.refit_delay_hours));
  KEA_RETURN_IF_ERROR(r.GetInt(&mh.refit_lookback_hours));
  KEA_RETURN_IF_ERROR(r.GetInt(&mh.holdout_hours));
  KEA_RETURN_IF_ERROR(r.GetDouble(&mh.validation_tolerance));
  KEA_RETURN_IF_ERROR(r.GetInt(&mh.probation_rounds));
  KEA_RETURN_IF_ERROR(r.GetDouble(&mh.probation_margin_scale));
  return Status::OK();
}

// ---- Bit-exact codec for the plan journaled at ROUND_STARTED. The journal,
// not a refit, is the authority on resume: the simulation clock has advanced
// into the rollout, so refitting would see a different window.

void EncodePlan(const YarnConfigTuner::Plan& plan, StateWriter* w) {
  w->PutU64(plan.recommendations.size());
  for (const core::GroupRecommendation& rec : plan.recommendations) {
    w->PutInt(rec.group.sc);
    w->PutInt(rec.group.sku);
    w->PutInt(rec.current_max_containers);
    w->PutInt(rec.recommended_max_containers);
  }
  w->PutDouble(plan.predicted_capacity_gain);
  w->PutDouble(plan.predicted_latency_before_s);
  w->PutDouble(plan.predicted_latency_after_s);
  w->PutU64(plan.lp_solution.size());
  for (const auto& [group, value] : plan.lp_solution) {
    w->PutInt(group.sc);
    w->PutInt(group.sku);
    w->PutDouble(value);
  }
}

Status DecodePlan(StateReader* r, YarnConfigTuner::Plan* plan) {
  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r->GetU64(&count));
  plan->recommendations.assign(count, core::GroupRecommendation{});
  for (core::GroupRecommendation& rec : plan->recommendations) {
    KEA_RETURN_IF_ERROR(r->GetInt(&rec.group.sc));
    KEA_RETURN_IF_ERROR(r->GetInt(&rec.group.sku));
    KEA_RETURN_IF_ERROR(r->GetInt(&rec.current_max_containers));
    KEA_RETURN_IF_ERROR(r->GetInt(&rec.recommended_max_containers));
  }
  KEA_RETURN_IF_ERROR(r->GetDouble(&plan->predicted_capacity_gain));
  KEA_RETURN_IF_ERROR(r->GetDouble(&plan->predicted_latency_before_s));
  KEA_RETURN_IF_ERROR(r->GetDouble(&plan->predicted_latency_after_s));
  KEA_RETURN_IF_ERROR(r->GetU64(&count));
  plan->lp_solution.clear();
  for (uint64_t i = 0; i < count; ++i) {
    sim::MachineGroupKey group;
    double value = 0.0;
    KEA_RETURN_IF_ERROR(r->GetInt(&group.sc));
    KEA_RETURN_IF_ERROR(r->GetInt(&group.sku));
    KEA_RETURN_IF_ERROR(r->GetDouble(&value));
    plan->lp_solution[group] = value;
  }
  return Status::OK();
}

std::string EncodeRoundStart(sim::HourIndex start_hour, sim::HourIndex fit_begin,
                             sim::HourIndex fit_end,
                             const YarnConfigTuner::Plan& plan) {
  StateWriter w;
  w.PutI64(start_hour);
  w.PutI64(fit_begin);
  w.PutI64(fit_end);
  EncodePlan(plan, &w);
  return w.Release();
}

Status DecodeRoundStart(const std::string& blob, sim::HourIndex* start_hour,
                        sim::HourIndex* fit_begin, sim::HourIndex* fit_end,
                        YarnConfigTuner::Plan* plan) {
  StateReader r(blob);
  int64_t start = 0, begin = 0, end = 0;
  KEA_RETURN_IF_ERROR(r.GetI64(&start));
  KEA_RETURN_IF_ERROR(r.GetI64(&begin));
  KEA_RETURN_IF_ERROR(r.GetI64(&end));
  *start_hour = static_cast<sim::HourIndex>(start);
  *fit_begin = static_cast<sim::HourIndex>(begin);
  *fit_end = static_cast<sim::HourIndex>(end);
  return DecodePlan(&r, plan);
}

/// The plan-sanity screen shared by the plain and durable guarded rounds: a
/// corrupted model never reaches the fleet.
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
    telemetry::TelemetryStore scratch;
    KEA_RETURN_IF_ERROR(engine_->Run(now_, hours, &scratch));
    if (fault_injector_ != nullptr) {
      KEA_RETURN_IF_ERROR(
          ingestion_->Ingest(fault_injector_->Corrupt(scratch.records())));
    } else {
      KEA_RETURN_IF_ERROR(ingestion_->Ingest(scratch.records()));
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
  if (ledger_ != nullptr && !in_journaled_round_) {
    if (durability_mode_ == DurabilityMode::kDegraded) {
      // Auto-probe: a healed disk re-checkpoints here (covering this call's
      // telemetry); a still-broken one keeps the session degraded. Either
      // way the simulation itself succeeded.
      (void)TryRestoreDurability();
    } else {
      Status written = WriteCheckpoint(ledger_->next_seq());
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
  KEA_ASSIGN_OR_RETURN(
      ledger_, core::DeploymentLedger::Open(options.dir + kLedgerFile));
  durability_dir_ = options.dir;
  keep_generations_ = options.keep_generations;
  deployment_.AttachLedger(ledger_.get());
  // The initial checkpoint covers whatever the (possibly pre-existing) ledger
  // holds, so Resume() of a never-crashed directory is a clean no-op restore.
  Status written = WriteCheckpoint(ledger_->next_seq());
  if (!written.ok()) {
    deployment_.AttachLedger(nullptr);
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
  return WriteCheckpoint(ledger_->next_seq());
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
  deployment_.AttachLedger(ledger_.get());
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

Status KeaSession::WriteCheckpoint(uint64_t covered_seq) {
  SnapshotWriter snapshot;

  StateWriter meta;
  meta.PutU64(covered_seq);
  meta.PutI64(now_);
  meta.PutBool(has_round_);
  meta.PutI64(last_fit_begin_);
  meta.PutI64(last_fit_end_);
  meta.PutI64(last_deploy_hour_);
  meta.PutI64(round_count_);
  meta.PutInt(static_cast<int>(last_whatif_options_.regressor));
  meta.PutU64(last_whatif_options_.min_observations);
  meta.PutInt(last_whatif_options_.num_threads);
  meta.PutU64(model_epoch_);
  meta.PutU64(deploy_epoch_);
  meta.PutI64(fabric_count_);
  meta.PutI64(keep_generations_);
  snapshot.AddSection("meta", meta.Release());

  StateWriter config;
  EncodeConfig(config_, ingestion_config_, ingestion_enabled_,
               fleet_chaos_config_, fleet_chaos_enabled_, self_healing_config_,
               self_healing_enabled_, &config);
  snapshot.AddSection("config", config.Release());

  snapshot.AddSection("records", store_.SerializeState());

  StateWriter cluster;
  cluster.PutU64(cluster_.machines().size());
  for (const sim::Machine& m : cluster_.machines()) {
    cluster.PutInt(m.sc);
    cluster.PutInt(m.max_containers);
    cluster.PutInt(m.max_queued_containers);
    cluster.PutDouble(m.power_cap_fraction);
    cluster.PutBool(m.feature_enabled);
  }
  snapshot.AddSection("cluster", cluster.Release());

  snapshot.AddSection("engine", engine_->SerializeState());
  snapshot.AddSection("deployment", deployment_.SerializeState());
  if (ingestion_ != nullptr) {
    snapshot.AddSection("ingestion", ingestion_->SerializeState());
  }
  if (fault_injector_ != nullptr) {
    snapshot.AddSection("fault_injector", fault_injector_->SerializeState());
  }
  if (fleet_faults_ != nullptr) {
    snapshot.AddSection("fleet_faults", fleet_faults_->SerializeState());
  }
  if (drift_ != nullptr) {
    snapshot.AddSection("drift", drift_->SerializeState());
  }
  if (model_health_ != nullptr) {
    snapshot.AddSection("model_health", model_health_->SerializeState());
  }

  KEA_RETURN_IF_ERROR(SnapshotGenerations::Write(
      snapshot, durability_dir_ + kCheckpointFile, keep_generations_));
  if (covered_seq > durable_seq_) durable_seq_ = covered_seq;
  return Status::OK();
}

StatusOr<std::unique_ptr<KeaSession>> KeaSession::Resume(const std::string& dir) {
  KEA_PHASE("session.journal_replay");
  // The ledger first: its durable progress bounds which checkpoints are
  // admissible. A checkpoint claiming coverage beyond the ledger's tail
  // (a rotted or rewound ledger) would fabricate effects on replay, so the
  // validator rejects it and the restore falls back a generation.
  std::unique_ptr<core::DeploymentLedger> ledger;
  KEA_ASSIGN_OR_RETURN(ledger, core::DeploymentLedger::Open(dir + kLedgerFile));
  const uint64_t ledger_next = ledger->next_seq();
  SnapshotGenerations::Validator admissible =
      [ledger_next](const SnapshotReader& candidate) -> Status {
    StatusOr<std::string> meta_blob = candidate.Section("meta");
    if (!meta_blob.ok()) return meta_blob.status();
    StateReader meta(meta_blob.value());
    uint64_t covered = 0;
    KEA_RETURN_IF_ERROR(meta.GetU64(&covered));
    if (covered > ledger_next) {
      return Status::FailedPrecondition(
          "checkpoint covers " + std::to_string(covered) +
          " ledger events but the ledger holds " +
          std::to_string(ledger_next) + " — refusing to fabricate state");
    }
    return Status::OK();
  };
  KEA_ASSIGN_OR_RETURN(SnapshotGenerations::Restored restored,
                       SnapshotGenerations::RestoreLatestValid(
                           dir + kCheckpointFile, admissible));
  SnapshotReader& snapshot = restored.reader;
  // Telemetry travels as the store's binary "records" section. A checkpoint
  // without it (one that held telemetry as CSV) is refused before anything
  // is built from it.
  if (!snapshot.Has("records")) {
    return Status::InvalidArgument("checkpoint " + restored.source_path +
                                   " has no 'records' section");
  }

  std::string config_blob;
  KEA_ASSIGN_OR_RETURN(config_blob, snapshot.Section("config"));
  Config config;
  IngestionConfig ingestion_config;
  bool ingestion_enabled = false;
  FleetChaosConfig chaos_config;
  bool chaos_enabled = false;
  SelfHealingConfig healing_config;
  bool healing_enabled = false;
  KEA_RETURN_IF_ERROR(DecodeConfig(config_blob, &config, &ingestion_config,
                                   &ingestion_enabled, &chaos_config,
                                   &chaos_enabled, &healing_config,
                                   &healing_enabled));

  KEA_ASSIGN_OR_RETURN(std::unique_ptr<KeaSession> session, Create(config));
  if (ingestion_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableIngestionPipeline(ingestion_config));
  }
  if (chaos_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableFleetChaos(chaos_config));
  }
  if (healing_enabled) {
    KEA_RETURN_IF_ERROR(session->EnableSelfHealing(healing_config));
  }

  std::string meta_blob;
  KEA_ASSIGN_OR_RETURN(meta_blob, snapshot.Section("meta"));
  StateReader meta(meta_blob);
  int64_t now = 0, fit_begin = 0, fit_end = 0, deploy_hour = 0;
  int regressor = 0, num_threads = 0;
  uint64_t min_observations = 0;
  KEA_RETURN_IF_ERROR(meta.GetU64(&session->durable_seq_));
  KEA_RETURN_IF_ERROR(meta.GetI64(&now));
  KEA_RETURN_IF_ERROR(meta.GetBool(&session->has_round_));
  KEA_RETURN_IF_ERROR(meta.GetI64(&fit_begin));
  KEA_RETURN_IF_ERROR(meta.GetI64(&fit_end));
  KEA_RETURN_IF_ERROR(meta.GetI64(&deploy_hour));
  KEA_RETURN_IF_ERROR(meta.GetI64(&session->round_count_));
  KEA_RETURN_IF_ERROR(meta.GetInt(&regressor));
  KEA_RETURN_IF_ERROR(meta.GetU64(&min_observations));
  KEA_RETURN_IF_ERROR(meta.GetInt(&num_threads));
  // Pre-serving checkpoints end here; their sessions start at epoch zero.
  if (!meta.AtEnd()) {
    KEA_RETURN_IF_ERROR(meta.GetU64(&session->model_epoch_));
    KEA_RETURN_IF_ERROR(meta.GetU64(&session->deploy_epoch_));
  }
  // Pre-fabric checkpoints end here; their sessions have run zero fabrics.
  if (!meta.AtEnd()) {
    KEA_RETURN_IF_ERROR(meta.GetI64(&session->fabric_count_));
  }
  // Pre-generation checkpoints end here; their retention knob defaults.
  if (!meta.AtEnd()) {
    int64_t keep = 0;
    KEA_RETURN_IF_ERROR(meta.GetI64(&keep));
    session->keep_generations_ = static_cast<int>(keep);
  }
  if (!meta.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint meta section");
  }
  session->now_ = static_cast<sim::HourIndex>(now);
  session->last_fit_begin_ = static_cast<sim::HourIndex>(fit_begin);
  session->last_fit_end_ = static_cast<sim::HourIndex>(fit_end);
  session->last_deploy_hour_ = static_cast<sim::HourIndex>(deploy_hour);
  session->last_whatif_options_.regressor =
      static_cast<core::RegressorKind>(regressor);
  session->last_whatif_options_.min_observations =
      static_cast<size_t>(min_observations);
  session->last_whatif_options_.num_threads = num_threads;

  std::string blob;
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("records"));
  KEA_RETURN_IF_ERROR(session->store_.RestoreState(blob));

  std::string cluster_blob;
  KEA_ASSIGN_OR_RETURN(cluster_blob, snapshot.Section("cluster"));
  StateReader cluster(cluster_blob);
  uint64_t machine_count = 0;
  KEA_RETURN_IF_ERROR(cluster.GetU64(&machine_count));
  if (machine_count != session->cluster_.machines().size()) {
    return Status::InvalidArgument(
        "checkpoint cluster size does not match the rebuilt fleet");
  }
  std::vector<int> scs(machine_count, 0);
  std::map<int, std::vector<int>> ids_by_sc;
  std::vector<sim::Machine>& machines = session->cluster_.mutable_machines();
  for (uint64_t i = 0; i < machine_count; ++i) {
    sim::Machine& m = machines[i];
    KEA_RETURN_IF_ERROR(cluster.GetInt(&scs[i]));
    KEA_RETURN_IF_ERROR(cluster.GetInt(&m.max_containers));
    KEA_RETURN_IF_ERROR(cluster.GetInt(&m.max_queued_containers));
    KEA_RETURN_IF_ERROR(cluster.GetDouble(&m.power_cap_fraction));
    KEA_RETURN_IF_ERROR(cluster.GetBool(&m.feature_enabled));
    if (scs[i] != m.sc) ids_by_sc[scs[i]].push_back(m.id);
  }
  if (!cluster.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in checkpoint cluster section");
  }
  // SetSoftwareConfig rebuilds the group index; only drifted machines need it.
  for (const auto& [sc, ids] : ids_by_sc) {
    KEA_RETURN_IF_ERROR(session->cluster_.SetSoftwareConfig(ids, sc));
  }

  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("engine"));
  KEA_RETURN_IF_ERROR(session->engine_->RestoreState(blob));
  KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("deployment"));
  KEA_RETURN_IF_ERROR(session->deployment_.RestoreState(blob));
  if (snapshot.Has("ingestion")) {
    if (session->ingestion_ == nullptr) {
      return Status::InvalidArgument(
          "checkpoint has ingestion state but no ingestion config");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("ingestion"));
    KEA_RETURN_IF_ERROR(session->ingestion_->RestoreState(blob));
  }
  if (snapshot.Has("fault_injector")) {
    if (session->fault_injector_ == nullptr) {
      return Status::InvalidArgument(
          "checkpoint has fault-injector state but no fault profile");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("fault_injector"));
    KEA_RETURN_IF_ERROR(session->fault_injector_->RestoreState(blob));
  }
  if (snapshot.Has("fleet_faults")) {
    if (session->fleet_faults_ == nullptr) {
      return Status::InvalidArgument(
          "checkpoint has fleet-fault state but no fleet-chaos config");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("fleet_faults"));
    KEA_RETURN_IF_ERROR(session->fleet_faults_->RestoreState(blob));
  }
  if (snapshot.Has("drift")) {
    if (session->drift_ == nullptr) {
      return Status::InvalidArgument(
          "checkpoint has drift state but no self-healing config");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("drift"));
    KEA_RETURN_IF_ERROR(session->drift_->RestoreState(blob));
  }
  if (snapshot.Has("model_health")) {
    if (session->model_health_ == nullptr) {
      return Status::InvalidArgument(
          "checkpoint has model-health state but no self-healing config");
    }
    KEA_ASSIGN_OR_RETURN(blob, snapshot.Section("model_health"));
    KEA_RETURN_IF_ERROR(session->model_health_->RestoreState(blob));
  }

  session->durability_dir_ = dir;
  session->ledger_ = std::move(ledger);
  session->deployment_.AttachLedger(session->ledger_.get());
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
    Status written = WriteCheckpoint(ledger_->next_seq());
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
  if (lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before tuning");
  }
  if (model_health_ != nullptr && model_health_->in_safe_mode()) {
    return Status::FailedPrecondition(
        "model-health breaker is open; deployments refused "
        "(use RunGuardedTuningRound to drive the refit cycle)");
  }
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  KEA_TRACE_SPAN("session.round", {{"kind", "yarn"},
                                   {"lookback_hours",
                                    std::to_string(lookback_hours)}});
  RoundsCounter()->Increment();
  sim::HourIndex begin = std::max(0, now_ - lookback_hours);

  KEA_ASSIGN_OR_RETURN(
      core::WhatIfEngine engine,
      core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                              options.whatif));
  YarnConfigTuner tuner(options);
  TuningRound round;
  KEA_ASSIGN_OR_RETURN(round.plan, tuner.ProposeFromEngine(engine, cluster_));
  round.fit_begin = begin;
  round.fit_end = now_;

  core::DeploymentModule::Options deploy_options;
  deploy_options.max_step = deploy_max_step;
  // Replacing the module must not reset its history or its ledger-key
  // counters — a restarted counter would reuse idempotency keys and make a
  // genuinely new apply look like a replayed one.
  std::string module_state = deployment_.SerializeState();
  deployment_ = core::DeploymentModule(deploy_options);
  KEA_RETURN_IF_ERROR(deployment_.RestoreState(module_state));
  if (ledger_ != nullptr) deployment_.AttachLedger(ledger_.get());
  StatusOr<std::vector<core::AppliedChange>> applied =
      deployment_.ApplyConservatively(round.plan.recommendations, &cluster_);
  if (!applied.ok()) {
    // Write-ahead discipline: a failed journal append touched no machine.
    // Storage failures flip the session to degraded so later rounds are
    // refused instead of repeatedly hammering a dead disk.
    if (IsStorageFailure(applied.status())) EnterDegradedMode(applied.status());
    return applied.status();
  }
  round.applied = std::move(applied).value();

  has_round_ = true;
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  last_fit_begin_ = begin;
  last_fit_end_ = now_;
  last_deploy_hour_ = now_;
  last_whatif_options_ = options.whatif;
  ++model_epoch_;
  if (!round.applied.empty()) ++deploy_epoch_;
  if (ledger_ != nullptr) {
    Status written = WriteCheckpoint(ledger_->next_seq());
    if (!written.ok()) {
      // The applies are already journaled; only their checkpoint is missing,
      // which resume's re-drive repairs. Degrade rather than fail the round.
      if (!IsStorageFailure(written)) return written;
      EnterDegradedMode(written);
    }
  }
  return round;
}

StatusOr<KeaSession::GuardedRound> KeaSession::RunGuardedTuningRound(
    const GuardedRoundOptions& options) {
  // The durability breaker outranks everything: a degraded storage plane
  // refuses any round (even safe-mode rounds persist breaker state).
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  // The breaker gates both the plain and the durable paths: while open, the
  // session holds the last known-good config and only drives the refit cycle.
  if (model_health_ != nullptr && model_health_->in_safe_mode()) {
    StatusOr<GuardedRound> round = RunSafeModeRound(options);
    if (!round.ok() && IsStorageFailure(round.status())) {
      EnterDegradedMode(round.status());
    }
    return round;
  }
  if (ledger_ != nullptr) {
    StatusOr<GuardedRound> round = RunGuardedTuningRoundDurable(options);
    if (!round.ok() && IsStorageFailure(round.status())) {
      // Journaled steps that already ran are on disk (or re-drivable);
      // degrade so nothing further reaches the fleet until the plane heals.
      EnterDegradedMode(round.status());
    }
    return round;
  }
  if (options.lookback_hours <= 0) {
    return Status::InvalidArgument("lookback_hours must be positive");
  }
  if (now_ == 0) {
    return Status::FailedPrecondition("simulate telemetry before tuning");
  }
  KEA_TRACE_SPAN("session.round", {{"kind", "guarded"},
                                   {"lookback_hours",
                                    std::to_string(options.lookback_hours)}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  sim::HourIndex begin = std::max(0, now_ - options.lookback_hours);

  KEA_ASSIGN_OR_RETURN(
      core::WhatIfEngine engine,
      core::WhatIfEngine::Fit(store_, telemetry::HourRangeFilter(begin, now_),
                              options.tuner.whatif));
  YarnConfigTuner tuner(options.tuner);
  GuardedRound round;
  KEA_ASSIGN_OR_RETURN(round.plan, tuner.ProposeFromEngine(engine, cluster_));
  round.fit_begin = begin;
  round.fit_end = now_;

  // A corrupted model never reaches the fleet: any non-finite prediction or
  // recommendation aborts before the first canary machine is touched.
  KEA_RETURN_IF_ERROR(CheckPlanSane(round.plan));

  // During probation (RE-ARMED) the guardrails are tightened — the freshly
  // refitted model gets less headroom. EffectiveGuardrails is the identity
  // while HEALTHY, so the tuned path stays bit-identical without trips.
  core::GuardrailedRollout::Options rollout_options = options.rollout;
  if (model_health_ != nullptr) {
    rollout_options.guardrails =
        model_health_->EffectiveGuardrails(rollout_options.guardrails);
  }
  core::GuardrailedRollout rollout(rollout_options);
  sim::HourIndex deploy_hour = now_;
  KEA_ASSIGN_OR_RETURN(
      round.rollout,
      rollout.Execute(round.plan.recommendations, &cluster_, &store_, now_,
                      [this](int hours) { return Simulate(hours); }));

  has_round_ = true;
  last_engine_ = std::make_unique<core::WhatIfEngine>(std::move(engine));
  last_fit_begin_ = begin;
  last_fit_end_ = round.fit_end;
  last_deploy_hour_ = deploy_hour;
  last_whatif_options_ = options.tuner.whatif;
  ++model_epoch_;
  // kNoChange rollouts never touch a machine; anything else changed the
  // fleet's applied configuration at least transiently.
  if (round.rollout.outcome != core::GuardrailedRollout::Outcome::kNoChange) {
    ++deploy_epoch_;
  }
  FinishRoundHealth(alarms_before, &round);
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
    KEA_RETURN_IF_ERROR(WriteCheckpoint(ledger_->next_seq()));
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

StatusOr<KeaSession::GuardedRound> KeaSession::RunGuardedTuningRoundDurable(
    const GuardedRoundOptions& options) {
  const int64_t round_number = round_count_;
  const std::string round_key = "round/" + std::to_string(round_number);
  KEA_TRACE_SPAN("session.round", {{"kind", "durable"},
                                   {"round", std::to_string(round_number)}});
  RoundsCounter()->Increment();
  const size_t alarms_before = TotalDriftAlarms();
  GuardedRound round;
  sim::HourIndex start_hour = 0;
  std::unique_ptr<core::WhatIfEngine> fresh_engine;

  // --- ROUND_STARTED: journal the fit window and the full plan before any
  // machine is touched. On resume the journaled plan is the authority — the
  // clock has advanced into the rollout, so a refit would see a different
  // window and could propose a different plan.
  {
    const core::DeploymentLedger::Event* event =
        ledger_->Find(round_key + "/started");
    std::string payload;
    if (event != nullptr && event->seq < durable_seq_) {
      StepReplayedCounter()->Increment();
      payload = event->payload;  // Replay: checkpoint already covers it.
    } else {
      KEA_RETURN_IF_ERROR(CrashPoints::Check("session.round_started.pre"));
      uint64_t seq = 0;
      if (event != nullptr) {
        // Journaled but not yet checkpointed: re-drive from the record.
        StepRedrivenCounter()->Increment();
        payload = event->payload;
        seq = event->seq;
      } else {
        StepFreshCounter()->Increment();
        if (options.lookback_hours <= 0) {
          return Status::InvalidArgument("lookback_hours must be positive");
        }
        if (now_ == 0) {
          return Status::FailedPrecondition("simulate telemetry before tuning");
        }
        sim::HourIndex begin = std::max(0, now_ - options.lookback_hours);
        KEA_ASSIGN_OR_RETURN(
            core::WhatIfEngine engine,
            core::WhatIfEngine::Fit(
                store_, telemetry::HourRangeFilter(begin, now_),
                options.tuner.whatif));
        YarnConfigTuner tuner(options.tuner);
        YarnConfigTuner::Plan plan;
        KEA_ASSIGN_OR_RETURN(plan, tuner.ProposeFromEngine(engine, cluster_));
        KEA_RETURN_IF_ERROR(CheckPlanSane(plan));
        fresh_engine = std::make_unique<core::WhatIfEngine>(std::move(engine));
        payload = EncodeRoundStart(now_, begin, now_, plan);
        const core::DeploymentLedger::Event* appended = nullptr;
        KEA_ASSIGN_OR_RETURN(
            appended,
            ledger_->Append(core::DeploymentLedger::EventType::kRoundStarted,
                            round_key + "/started", payload));
        seq = appended->seq;
      }
      KEA_RETURN_IF_ERROR(
          CrashPoints::Check("session.round_started.post_record"));
      KEA_RETURN_IF_ERROR(WriteCheckpoint(seq + 1));
    }
    KEA_RETURN_IF_ERROR(DecodeRoundStart(payload, &start_hour,
                                         &round.fit_begin, &round.fit_end,
                                         &round.plan));
  }

  // --- Waves: the rollout drives itself through the ledger, checkpointing
  // after every journaled step. Simulate() must not checkpoint concurrently —
  // a mid-observation checkpoint would claim coverage of a step whose verdict
  // is not yet journaled.
  core::GuardrailedRollout::Options rollout_options = options.rollout;
  if (model_health_ != nullptr) {
    rollout_options.guardrails =
        model_health_->EffectiveGuardrails(rollout_options.guardrails);
  }
  core::GuardrailedRollout rollout(rollout_options);
  core::GuardrailedRollout::JournalContext context;
  context.ledger = ledger_.get();
  context.durable_seq = durable_seq_;
  context.round = static_cast<int>(round_number);
  context.checkpoint = [this](uint64_t covered_seq) {
    return WriteCheckpoint(covered_seq);
  };
  in_journaled_round_ = true;
  StatusOr<core::GuardrailedRollout::Report> executed = rollout.ExecuteJournaled(
      round.plan.recommendations, &cluster_, &store_, start_hour,
      [this](int hours) { return Simulate(hours); }, &context);
  in_journaled_round_ = false;
  if (!executed.ok()) return executed.status();
  round.rollout = std::move(executed).value();

  // --- ROUND_FINISHED: seal the outcome so the next round gets a new key.
  {
    const core::DeploymentLedger::Event* event =
        ledger_->Find(round_key + "/finished");
    if (event == nullptr || event->seq >= durable_seq_) {
      KEA_RETURN_IF_ERROR(CrashPoints::Check("session.round_finished.pre"));
      uint64_t seq = 0;
      if (event != nullptr) {
        StepRedrivenCounter()->Increment();
        seq = event->seq;
      } else {
        StepFreshCounter()->Increment();
        StateWriter outcome;
        outcome.PutInt(static_cast<int>(round.rollout.outcome));
        outcome.PutInt(round.rollout.tripped_wave);
        outcome.PutU64(round.rollout.machines_restored);
        const core::DeploymentLedger::Event* appended = nullptr;
        KEA_ASSIGN_OR_RETURN(
            appended,
            ledger_->Append(core::DeploymentLedger::EventType::kRoundFinished,
                            round_key + "/finished", outcome.Release()));
        seq = appended->seq;
      }
      KEA_RETURN_IF_ERROR(
          CrashPoints::Check("session.round_finished.post_record"));
      // Bookkeeping before the checkpoint so the round's completion is part
      // of the durable state the checkpoint claims to cover.
      round_count_ = round_number + 1;
      has_round_ = true;
      last_fit_begin_ = round.fit_begin;
      last_fit_end_ = round.fit_end;
      last_deploy_hour_ = start_hour;
      last_whatif_options_ = options.tuner.whatif;
      KEA_RETURN_IF_ERROR(WriteCheckpoint(seq + 1));
    } else {
      StepReplayedCounter()->Increment();
      round_count_ = round_number + 1;
      has_round_ = true;
      last_fit_begin_ = round.fit_begin;
      last_fit_end_ = round.fit_end;
      last_deploy_hour_ = start_hour;
      last_whatif_options_ = options.tuner.whatif;
    }
  }

  ++model_epoch_;
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
  FinishRoundHealth(alarms_before, &round);
  if (self_healing_enabled_) {
    // Persist the post-round breaker/residual state; without this a crash
    // here would resume with a pre-round ModelHealth.
    KEA_RETURN_IF_ERROR(WriteCheckpoint(ledger_->next_seq()));
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
  if (ledger_ != nullptr) {
    StatusOr<core::ExperimentFabric::Report> report =
        RunExperimentFabricDurable(requests, options);
    if (!report.ok() && IsStorageFailure(report.status())) {
      EnterDegradedMode(report.status());
    }
    return report;
  }
  KEA_TRACE_SPAN("session.fabric", {{"kind", "plain"},
                                    {"requests",
                                     std::to_string(requests.size())}});
  FabricRunsCounter()->Increment();
  core::ExperimentFabric::Options fabric_options = options.fabric;
  WireDownHours(fleet_faults_.get(), &fabric_options);
  core::ExperimentFabric fabric(fabric_options);
  StatusOr<core::ExperimentFabric::Report> report = fabric.Run(
      requests, &cluster_, &store_, now_,
      [this](int hours) { return Simulate(hours); }, nullptr);
  if (report.ok() && report.value().admitted > 0) {
    // Flights patched and restored machine config; anything cached against
    // the previous deploy epoch saw a fleet that no longer exists.
    ++deploy_epoch_;
  }
  return report;
}

StatusOr<core::ExperimentFabric::Report> KeaSession::RunExperimentFabricDurable(
    const std::vector<core::FlightRequest>& requests,
    const FabricRoundOptions& options) {
  const int64_t fabric_number = fabric_count_;
  const std::string fabric_key = "fab/" + std::to_string(fabric_number);
  KEA_TRACE_SPAN("session.fabric", {{"kind", "durable"},
                                    {"fabric", std::to_string(fabric_number)}});
  FabricRunsCounter()->Increment();
  sim::HourIndex start_hour = 0;

  // --- FABRIC_STARTED: seal the start hour and queue size before any flight
  // is touched. On resume the journaled start hour is the authority — the
  // clock has advanced into the run.
  {
    const core::DeploymentLedger::Event* event =
        ledger_->Find(fabric_key + "/started");
    std::string payload;
    if (event != nullptr && event->seq < durable_seq_) {
      StepReplayedCounter()->Increment();
      payload = event->payload;
    } else {
      KEA_RETURN_IF_ERROR(CrashPoints::Check("session.fabric_started.pre"));
      uint64_t seq = 0;
      if (event != nullptr) {
        StepRedrivenCounter()->Increment();
        payload = event->payload;
        seq = event->seq;
      } else {
        StepFreshCounter()->Increment();
        StateWriter w;
        w.PutI64(now_);
        w.PutU64(requests.size());
        payload = w.Release();
        const core::DeploymentLedger::Event* appended = nullptr;
        KEA_ASSIGN_OR_RETURN(
            appended,
            ledger_->Append(core::DeploymentLedger::EventType::kFabricStarted,
                            fabric_key + "/started", payload));
        seq = appended->seq;
      }
      KEA_RETURN_IF_ERROR(
          CrashPoints::Check("session.fabric_started.post_record"));
      KEA_RETURN_IF_ERROR(WriteCheckpoint(seq + 1));
    }
    StateReader r(payload);
    int64_t start = 0;
    uint64_t queue_size = 0;
    KEA_RETURN_IF_ERROR(r.GetI64(&start));
    KEA_RETURN_IF_ERROR(r.GetU64(&queue_size));
    if (queue_size != requests.size()) {
      return Status::FailedPrecondition(
          "resumed fabric run " + std::to_string(fabric_number) + " had " +
          std::to_string(queue_size) + " requests, got " +
          std::to_string(requests.size()) +
          " — resume must pass the same queue");
    }
    start_hour = static_cast<sim::HourIndex>(start);
  }

  // --- Flights: the fabric drives itself through the ledger under
  // "fab<n>/..." keys, checkpointing after every journaled step. Simulate()
  // must not checkpoint concurrently (same contract as guarded rounds).
  core::ExperimentFabric::Options fabric_options = options.fabric;
  WireDownHours(fleet_faults_.get(), &fabric_options);
  core::ExperimentFabric fabric(fabric_options);
  core::ExperimentFabric::JournalContext context;
  context.ledger = ledger_.get();
  context.durable_seq = durable_seq_;
  context.round = static_cast<int>(fabric_number);
  context.checkpoint = [this](uint64_t covered_seq) {
    return WriteCheckpoint(covered_seq);
  };
  in_journaled_round_ = true;
  StatusOr<core::ExperimentFabric::Report> executed = fabric.Run(
      requests, &cluster_, &store_, start_hour,
      [this](int hours) { return Simulate(hours); }, &context);
  in_journaled_round_ = false;
  if (!executed.ok()) return executed.status();
  core::ExperimentFabric::Report report = std::move(executed).value();

  // --- FABRIC_FINISHED: seal the outcome so the next run gets new keys.
  {
    const core::DeploymentLedger::Event* event =
        ledger_->Find(fabric_key + "/finished");
    if (event == nullptr || event->seq >= durable_seq_) {
      KEA_RETURN_IF_ERROR(CrashPoints::Check("session.fabric_finished.pre"));
      uint64_t seq = 0;
      if (event != nullptr) {
        StepRedrivenCounter()->Increment();
        seq = event->seq;
      } else {
        StepFreshCounter()->Increment();
        StateWriter outcome;
        outcome.PutU64(report.admitted);
        outcome.PutU64(report.rejected);
        outcome.PutU64(report.trips);
        outcome.PutU64(report.max_concurrent);
        outcome.PutU64(report.peak_flighted_machines);
        outcome.PutI64(report.end_hour);
        const core::DeploymentLedger::Event* appended = nullptr;
        KEA_ASSIGN_OR_RETURN(
            appended,
            ledger_->Append(core::DeploymentLedger::EventType::kFabricFinished,
                            fabric_key + "/finished", outcome.Release()));
        seq = appended->seq;
      }
      KEA_RETURN_IF_ERROR(
          CrashPoints::Check("session.fabric_finished.post_record"));
      // Bookkeeping before the checkpoint so the run's completion is part of
      // the durable state the checkpoint claims to cover.
      fabric_count_ = fabric_number + 1;
      KEA_RETURN_IF_ERROR(WriteCheckpoint(seq + 1));
    } else {
      StepReplayedCounter()->Increment();
      fabric_count_ = fabric_number + 1;
    }
  }
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
  if (durability_mode_ == DurabilityMode::kDegraded) {
    return DegradedRefusal(degraded_reason_);
  }
  KEA_RETURN_IF_ERROR(deployment_.RollbackLast(&cluster_));
  ++deploy_epoch_;
  if (ledger_ != nullptr && !in_journaled_round_) {
    Status written = WriteCheckpoint(ledger_->next_seq());
    if (!written.ok()) {
      if (!IsStorageFailure(written)) return written;
      // The rollback is journaled; only its checkpoint is missing.
      EnterDegradedMode(written);
    }
  }
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
