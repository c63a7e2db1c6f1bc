#include "core/guardrailed_rollout.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_set>

#include "common/crash_point.h"
#include "common/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {
namespace {

// Deterministic rollout counters: wave/trip/rollback totals are logical
// events (the rollout loop is single-threaded). The durable.step_* trio
// classifies journaled steps on resume — REPLAY (checkpoint already holds
// the effect), RE-DRIVE (journaled intent, effect re-run), FRESH (new) —
// the audit trail that explains what a recovery actually did.
obs::Counter* WavesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("rollout.waves");
  return c;
}
obs::Counter* TripsCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("rollout.guardrail_trips");
  return c;
}
obs::Counter* RollbacksCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("rollout.rollbacks");
  return c;
}
obs::Counter* MachinesRestoredCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("rollout.machines_restored");
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
  static obs::Counter* c = obs::Registry::Get().GetCounter("durable.step_fresh");
  return c;
}

/// Guardrail metrics of one telemetry window restricted to a machine set.
struct WindowMetrics {
  size_t records = 0;
  double tasks = 0.0;
  double latency_s = 0.0;      ///< Task-weighted mean latency (W-bar).
  double queue_p99_ms = 0.0;
  double utilization = 0.0;    ///< Mean CPU utilization.
  /// Records whose mean task latency exceeded the SLO target (0 when the
  /// SLO guardrail is disabled).
  size_t slo_bad = 0;
};

WindowMetrics Measure(const telemetry::TelemetryStore& store,
                      const std::unordered_set<int>& machine_ids,
                      sim::HourIndex begin, sim::HourIndex end,
                      double slo_target_latency_s = 0.0) {
  WindowMetrics m;
  double weighted_latency = 0.0, util_sum = 0.0;
  std::vector<double> queue_latencies;
  store.ForEach(telemetry::HourRangeFilter(begin, end),
                [&](const telemetry::MachineHourRecord& r) {
    if (!machine_ids.empty() && machine_ids.count(r.machine_id) == 0) return;
    if (!std::isfinite(r.cpu_utilization) || !std::isfinite(r.avg_task_latency_s) ||
        !std::isfinite(r.tasks_finished) || !std::isfinite(r.queue_latency_ms)) {
      return;
    }
    ++m.records;
    if (slo_target_latency_s > 0.0 &&
        r.avg_task_latency_s > slo_target_latency_s) {
      ++m.slo_bad;
    }
    m.tasks += r.tasks_finished;
    weighted_latency += r.avg_task_latency_s * r.tasks_finished;
    util_sum += r.cpu_utilization;
    queue_latencies.push_back(r.queue_latency_ms);
  });
  if (m.records == 0) return m;
  m.latency_s = m.tasks > 0.0 ? weighted_latency / m.tasks : 0.0;
  m.utilization = util_sum / static_cast<double>(m.records);
  std::sort(queue_latencies.begin(), queue_latencies.end());
  size_t p99 = static_cast<size_t>(0.99 * static_cast<double>(queue_latencies.size()));
  m.queue_p99_ms = queue_latencies[std::min(p99, queue_latencies.size() - 1)];
  return m;
}

/// Per-group targets clamped to +-max_step of the current configuration,
/// exactly like DeploymentModule::ApplyConservatively. No-ops are omitted.
std::map<sim::MachineGroupKey, int> ClampTargets(
    const std::vector<GroupRecommendation>& recommendations,
    const DeploymentModule::Options& deploy) {
  std::map<sim::MachineGroupKey, int> targets;
  for (const GroupRecommendation& rec : recommendations) {
    int delta = rec.recommended_max_containers - rec.current_max_containers;
    int clamped = std::clamp(delta, -deploy.max_step, deploy.max_step);
    int target =
        std::max(rec.current_max_containers + clamped, deploy.min_containers);
    if (target != rec.current_max_containers) targets[rec.group] = target;
  }
  return targets;
}

}  // namespace

std::string GuardrailEvaluation::Describe() const {
  if (!measurable) return "guardrails unmeasurable (no usable telemetry)";
  std::string out;
  auto add = [&out](const char* name, bool ok, double base, double observed) {
    out += name;
    out += ok ? " ok (" : " TRIPPED (";
    out += std::to_string(base) + " -> " + std::to_string(observed) + ") ";
  };
  add("latency", latency_ok, baseline_latency_s, observed_latency_s);
  add("queue_p99", queue_ok, baseline_queue_p99_ms, observed_queue_p99_ms);
  add("utilization", utilization_ok, baseline_utilization, observed_utilization);
  if (slo_checked) {
    out += "slo_burn";
    out += slo_ok ? " ok (" : " TRIPPED (";
    out += std::to_string(observed_slo_burn) + ") ";
  }
  return out;
}

GuardrailedRollout::GuardrailedRollout(const Options& options) : options_(options) {}

Status GuardrailedRollout::ValidateOptions() const {
  if (options_.wave_fractions.empty()) {
    return Status::InvalidArgument("rollout needs at least one wave");
  }
  double prev = 0.0;
  for (double f : options_.wave_fractions) {
    if (f <= prev || f > 1.0) {
      return Status::InvalidArgument(
          "wave_fractions must be strictly increasing within (0, 1]");
    }
    prev = f;
  }
  if (options_.observe_hours_per_wave <= 0) {
    return Status::InvalidArgument("observe_hours_per_wave must be positive");
  }
  if (options_.baseline_hours <= 0) {
    return Status::InvalidArgument("baseline_hours must be positive");
  }
  return Status::OK();
}

StatusOr<GuardrailedRollout::MachineSnapshot> GuardrailedRollout::ApplyWave(
    const std::vector<int>& machine_ids,
    const std::map<sim::MachineGroupKey, int>& targets, sim::Cluster* cluster) {
  MachineSnapshot snapshot;
  auto& machines = cluster->mutable_machines();
  for (int id : machine_ids) {
    if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(id));
    }
    sim::Machine& m = machines[static_cast<size_t>(id)];
    auto it = targets.find(m.group());
    if (it == targets.end() || m.max_containers == it->second) continue;
    snapshot.emplace_back(id, m.max_containers);
    m.max_containers = it->second;
  }
  return snapshot;
}

GuardrailEvaluation GuardrailedRollout::Evaluate(
    const telemetry::TelemetryStore& store, const std::vector<int>& machine_ids,
    sim::HourIndex baseline_begin, sim::HourIndex baseline_end,
    sim::HourIndex begin, sim::HourIndex end) const {
  std::unordered_set<int> ids(machine_ids.begin(), machine_ids.end());
  const double slo_target = options_.guardrails.slo_target_latency_s;
  WindowMetrics baseline = Measure(store, ids, baseline_begin, baseline_end);
  WindowMetrics observed = Measure(store, ids, begin, end, slo_target);

  GuardrailEvaluation eval;
  eval.baseline_latency_s = baseline.latency_s;
  eval.observed_latency_s = observed.latency_s;
  eval.baseline_queue_p99_ms = baseline.queue_p99_ms;
  eval.observed_queue_p99_ms = observed.queue_p99_ms;
  eval.baseline_utilization = baseline.utilization;
  eval.observed_utilization = observed.utilization;

  // Silence is not health: an empty window (all telemetry for the treated
  // machines dropped or quarantined) must trip, never pass.
  eval.measurable = baseline.records > 0 && observed.records > 0;
  if (!eval.measurable) return eval;

  const GuardrailThresholds& t = options_.guardrails;
  eval.latency_ok =
      baseline.latency_s > 0.0
          ? observed.latency_s <= baseline.latency_s * t.max_latency_ratio
          : true;
  eval.queue_ok = observed.queue_p99_ms <=
                  std::max(baseline.queue_p99_ms * t.max_queue_p99_ratio,
                           t.queue_p99_floor_ms);
  eval.utilization_ok = observed.utilization <= t.max_utilization;
  if (t.slo_target_latency_s > 0.0) {
    // Same burn-rate semantic as obs::SloTracker: fraction of bad
    // observations over the window, divided by the error budget.
    eval.slo_checked = true;
    const double bad_fraction = static_cast<double>(observed.slo_bad) /
                                static_cast<double>(observed.records);
    const double budget = 1.0 - t.slo_objective;
    eval.observed_slo_burn =
        budget > 0.0 ? bad_fraction / budget : (bad_fraction > 0.0 ? 1e9 : 0.0);
    eval.slo_ok = eval.observed_slo_burn <= t.max_slo_burn;
  }
  return eval;
}

void GuardrailedRollout::Restore(const std::vector<MachineSnapshot>& snapshots,
                                 sim::Cluster* cluster, size_t* restored) const {
  auto& machines = cluster->mutable_machines();
  for (auto wave = snapshots.rbegin(); wave != snapshots.rend(); ++wave) {
    for (auto entry = wave->rbegin(); entry != wave->rend(); ++entry) {
      machines[static_cast<size_t>(entry->first)].max_containers = entry->second;
      ++*restored;
    }
  }
}

StatusOr<GuardrailedRollout::Report> GuardrailedRollout::Execute(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance) {
  KEA_RETURN_IF_ERROR(ValidateOptions());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to roll out");
  }

  std::map<sim::MachineGroupKey, int> targets =
      ClampTargets(recommendations, options_.deploy);

  Report report;
  if (targets.empty()) {
    report.outcome = Outcome::kNoChange;
    return report;
  }

  int num_sc = cluster->num_subclusters();
  if (num_sc <= 0) return Status::FailedPrecondition("cluster has no sub-clusters");

  std::vector<MachineSnapshot> snapshots;
  std::vector<int> treated;  ///< Cumulative machines changed across waves.
  sim::HourIndex now = start_hour;
  sim::HourIndex baseline_begin = std::max(0, start_hour - options_.baseline_hours);

  int next_sc = 0;
  for (size_t w = 0; w < options_.wave_fractions.size(); ++w) {
    int end_sc = static_cast<int>(
        std::ceil(options_.wave_fractions[w] * static_cast<double>(num_sc)));
    end_sc = std::clamp(end_sc, next_sc, num_sc);
    if (w + 1 == options_.wave_fractions.size() &&
        options_.wave_fractions[w] >= 1.0) {
      end_sc = num_sc;  // Final full-fleet wave sweeps every remainder.
    }
    if (end_sc == next_sc && next_sc < num_sc) end_sc = next_sc + 1;

    KEA_TRACE_SPAN("rollout.wave", {{"wave", std::to_string(w)}});
    WavesCounter()->Increment();
    WaveResult wave;
    wave.wave = static_cast<int>(w);
    std::vector<int> wave_machines;
    for (int sc = next_sc; sc < end_sc; ++sc) {
      wave.sub_clusters.push_back(sc);
      std::vector<int> ids = cluster->SubClusterMachines(sc);
      wave_machines.insert(wave_machines.end(), ids.begin(), ids.end());
    }
    next_sc = end_sc;

    auto snapshot = ApplyWave(wave_machines, targets, cluster);
    if (!snapshot.ok()) {
      size_t restored = 0;
      Restore(snapshots, cluster, &restored);
      return snapshot.status();
    }
    wave.machines_changed = snapshot->size();
    if (wave.machines_changed == 0) {
      // No targeted machine in this wave: nothing to observe, trivially safe.
      wave.passed = true;
      report.waves.push_back(std::move(wave));
      continue;
    }
    snapshots.push_back(std::move(snapshot).value());
    for (const auto& entry : snapshots.back()) treated.push_back(entry.first);

    wave.observe_begin = now;
    Status advanced = advance(options_.observe_hours_per_wave);
    if (!advanced.ok()) {
      size_t restored = 0;
      Restore(snapshots, cluster, &restored);
      return advanced;
    }
    now += options_.observe_hours_per_wave;
    wave.observe_end = now;

    wave.eval = Evaluate(*store, treated, baseline_begin, start_hour,
                         wave.observe_begin, wave.observe_end);
    wave.passed = wave.eval.pass();
    bool tripped = !wave.passed;
    report.waves.push_back(std::move(wave));

    if (tripped) {
      TripsCounter()->Increment();
      report.tripped_wave = static_cast<int>(w);
      Restore(snapshots, cluster, &report.machines_restored);
      RollbacksCounter()->Increment();
      MachinesRestoredCounter()->Increment(report.machines_restored);
      report.outcome = Outcome::kRolledBack;
      return report;
    }
  }

  report.outcome = Outcome::kConverged;
  return report;
}

std::string GuardrailedRollout::EncodeEvaluation(const GuardrailEvaluation& eval) {
  StateWriter w;
  w.PutDouble(eval.baseline_latency_s);
  w.PutDouble(eval.observed_latency_s);
  w.PutDouble(eval.baseline_queue_p99_ms);
  w.PutDouble(eval.observed_queue_p99_ms);
  w.PutDouble(eval.baseline_utilization);
  w.PutDouble(eval.observed_utilization);
  w.PutBool(eval.latency_ok);
  w.PutBool(eval.queue_ok);
  w.PutBool(eval.utilization_ok);
  w.PutBool(eval.measurable);
  // SLO guardrail fields (appended; pre-SLO blobs simply end here).
  w.PutBool(eval.slo_checked);
  w.PutDouble(eval.observed_slo_burn);
  w.PutBool(eval.slo_ok);
  return w.Release();
}

Status GuardrailedRollout::DecodeEvaluation(const std::string& blob,
                                            GuardrailEvaluation* eval) {
  StateReader r(blob);
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->baseline_latency_s));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->observed_latency_s));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->baseline_queue_p99_ms));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->observed_queue_p99_ms));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->baseline_utilization));
  KEA_RETURN_IF_ERROR(r.GetDouble(&eval->observed_utilization));
  KEA_RETURN_IF_ERROR(r.GetBool(&eval->latency_ok));
  KEA_RETURN_IF_ERROR(r.GetBool(&eval->queue_ok));
  KEA_RETURN_IF_ERROR(r.GetBool(&eval->utilization_ok));
  KEA_RETURN_IF_ERROR(r.GetBool(&eval->measurable));
  if (!r.AtEnd()) {
    // Blobs journaled before the SLO guardrail existed stop above; their
    // defaults (slo_checked=false, slo_ok=true) reproduce the old verdict.
    KEA_RETURN_IF_ERROR(r.GetBool(&eval->slo_checked));
    KEA_RETURN_IF_ERROR(r.GetDouble(&eval->observed_slo_burn));
    KEA_RETURN_IF_ERROR(r.GetBool(&eval->slo_ok));
  }
  return Status::OK();
}

StatusOr<GuardrailedRollout::Report> GuardrailedRollout::ExecuteJournaled(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx) {
  if (ctx == nullptr || ctx->ledger == nullptr) {
    return Status::InvalidArgument("null journal context / ledger");
  }
  Report report;
  std::vector<MachineSnapshot> snapshots;
  Status run = RunJournaled(recommendations, cluster, store, start_hour, advance,
                            ctx, &report, &snapshots);
  if (!run.ok()) {
    // An injected crash models abrupt process death: leave the world exactly
    // as the dying process would — resume will pick it up from the journal.
    // Real errors restore the in-memory cluster, mirroring Execute().
    if (!CrashPoints::IsCrash(run) && cluster != nullptr) {
      size_t restored = 0;
      Restore(snapshots, cluster, &restored);
    }
    return run;
  }
  return report;
}

Status GuardrailedRollout::RunJournaled(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx, Report* report,
    std::vector<MachineSnapshot>* snapshots) {
  KEA_RETURN_IF_ERROR(ValidateOptions());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to roll out");
  }

  // One journaled step: write-ahead append under an idempotency key, then the
  // effect, then a checkpoint covering the step. Three phases on resume:
  //   - seq <  durable_seq: REPLAY — the restored checkpoint already holds
  //     the effect; only the recorded payload is returned for bookkeeping.
  //   - seq >= durable_seq: RE-DRIVE — recorded intent whose effect was lost;
  //     the effect runs again from the restored (pre-effect) state.
  //   - absent: FRESH — record intent, run the effect.
  // Crash points bracket the append so the sweep covers both "died before
  // journaling" (step re-runs whole) and "journaled but died before the
  // effect was durable" (step re-drives).
  auto step = [&](DeploymentLedger::EventType type, const std::string& key,
                  const std::string& crash,
                  const std::function<std::string()>& make_payload,
                  const std::function<Status(const std::string&)>& effect,
                  std::string* out_payload) -> Status {
    const DeploymentLedger::Event* ev = ctx->ledger->Find(key);
    if (ev != nullptr && ev->seq < ctx->durable_seq) {
      StepReplayedCounter()->Increment();
      *out_payload = ev->payload;
      return Status::OK();
    }
    KEA_RETURN_IF_ERROR(CrashPoints::Check(crash + ".pre"));
    std::string payload;
    uint64_t seq = 0;
    if (ev != nullptr) {
      StepRedrivenCounter()->Increment();
      payload = ev->payload;
      seq = ev->seq;
    } else {
      StepFreshCounter()->Increment();
      payload = make_payload();
      KEA_ASSIGN_OR_RETURN(const DeploymentLedger::Event* appended,
                           ctx->ledger->Append(type, key, payload));
      seq = appended->seq;
    }
    KEA_RETURN_IF_ERROR(CrashPoints::Check(crash + ".post_record"));
    if (effect) KEA_RETURN_IF_ERROR(effect(payload));
    if (ctx->checkpoint) KEA_RETURN_IF_ERROR(ctx->checkpoint(seq + 1));
    *out_payload = payload;
    return Status::OK();
  };

  std::map<sim::MachineGroupKey, int> targets =
      ClampTargets(recommendations, options_.deploy);
  if (targets.empty()) {
    report->outcome = Outcome::kNoChange;
    return Status::OK();
  }

  int num_sc = cluster->num_subclusters();
  if (num_sc <= 0) return Status::FailedPrecondition("cluster has no sub-clusters");

  std::string rkey = "r";
  rkey += std::to_string(ctx->round);
  std::vector<int> treated;
  sim::HourIndex now = start_hour;
  sim::HourIndex baseline_begin = std::max(0, start_hour - options_.baseline_hours);

  int next_sc = 0;
  bool tripped = false;
  for (size_t w = 0; w < options_.wave_fractions.size() && !tripped; ++w) {
    const std::string wkey = rkey + "/w" + std::to_string(w);
    KEA_TRACE_SPAN("rollout.wave", {{"wave", std::to_string(w)},
                                    {"key", wkey},
                                    {"journaled", "1"}});
    WavesCounter()->Increment();
    WaveResult wave;
    wave.wave = static_cast<int>(w);

    // -- WAVE_STARTED: which sub-clusters this wave covers.
    std::string payload;
    KEA_RETURN_IF_ERROR(step(
        DeploymentLedger::EventType::kWaveStarted, wkey + "/started",
        "rollout.wave_started",
        [&] {
          int end_sc = static_cast<int>(std::ceil(
              options_.wave_fractions[w] * static_cast<double>(num_sc)));
          end_sc = std::clamp(end_sc, next_sc, num_sc);
          if (w + 1 == options_.wave_fractions.size() &&
              options_.wave_fractions[w] >= 1.0) {
            end_sc = num_sc;
          }
          if (end_sc == next_sc && next_sc < num_sc) end_sc = next_sc + 1;
          StateWriter sw;
          sw.PutInt(end_sc);
          sw.PutU64(static_cast<uint64_t>(end_sc - next_sc));
          for (int sc = next_sc; sc < end_sc; ++sc) sw.PutInt(sc);
          return sw.Release();
        },
        nullptr, &payload));
    {
      StateReader sr(payload);
      int end_sc = 0;
      uint64_t count = 0;
      KEA_RETURN_IF_ERROR(sr.GetInt(&end_sc));
      KEA_RETURN_IF_ERROR(sr.GetU64(&count));
      for (uint64_t i = 0; i < count; ++i) {
        int sc = 0;
        KEA_RETURN_IF_ERROR(sr.GetInt(&sc));
        wave.sub_clusters.push_back(sc);
      }
      next_sc = end_sc;
    }
    std::vector<int> wave_machines;
    for (int sc : wave.sub_clusters) {
      std::vector<int> ids = cluster->SubClusterMachines(sc);
      wave_machines.insert(wave_machines.end(), ids.begin(), ids.end());
    }

    // -- WAVE_APPLIED: per-machine (id, old, new) deltas, journaled before
    // the cluster is touched.
    KEA_RETURN_IF_ERROR(step(
        DeploymentLedger::EventType::kWaveApplied, wkey + "/applied",
        "rollout.wave_applied",
        [&] {
          StateWriter sw;
          std::vector<std::tuple<int, int, int>> deltas;
          const auto& machines = cluster->machines();
          for (int id : wave_machines) {
            if (id < 0 || static_cast<size_t>(id) >= machines.size()) continue;
            const sim::Machine& m = machines[static_cast<size_t>(id)];
            auto it = targets.find(m.group());
            if (it == targets.end() || m.max_containers == it->second) continue;
            deltas.emplace_back(id, m.max_containers, it->second);
          }
          sw.PutU64(deltas.size());
          for (const auto& [id, old_max, new_max] : deltas) {
            sw.PutInt(id);
            sw.PutInt(old_max);
            sw.PutInt(new_max);
          }
          return sw.Release();
        },
        [&](const std::string& p) -> Status {
          StateReader sr(p);
          uint64_t count = 0;
          KEA_RETURN_IF_ERROR(sr.GetU64(&count));
          auto& machines = cluster->mutable_machines();
          for (uint64_t i = 0; i < count; ++i) {
            int id = 0, old_max = 0, new_max = 0;
            KEA_RETURN_IF_ERROR(sr.GetInt(&id));
            KEA_RETURN_IF_ERROR(sr.GetInt(&old_max));
            KEA_RETURN_IF_ERROR(sr.GetInt(&new_max));
            if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
              return Status::OutOfRange("machine id " + std::to_string(id));
            }
            machines[static_cast<size_t>(id)].max_containers = new_max;
          }
          return Status::OK();
        },
        &payload));
    MachineSnapshot snapshot;
    {
      StateReader sr(payload);
      uint64_t count = 0;
      KEA_RETURN_IF_ERROR(sr.GetU64(&count));
      for (uint64_t i = 0; i < count; ++i) {
        int id = 0, old_max = 0, new_max = 0;
        KEA_RETURN_IF_ERROR(sr.GetInt(&id));
        KEA_RETURN_IF_ERROR(sr.GetInt(&old_max));
        KEA_RETURN_IF_ERROR(sr.GetInt(&new_max));
        snapshot.emplace_back(id, old_max);
      }
    }
    wave.machines_changed = snapshot.size();
    if (wave.machines_changed == 0) {
      // No targeted machine in this wave: nothing to observe, trivially safe.
      wave.passed = true;
      report->waves.push_back(std::move(wave));
      continue;
    }
    snapshots->push_back(std::move(snapshot));
    for (const auto& entry : snapshots->back()) treated.push_back(entry.first);

    // -- WAVE_OBSERVED: advance the world through the observation window.
    KEA_RETURN_IF_ERROR(step(
        DeploymentLedger::EventType::kWaveObserved, wkey + "/observed",
        "rollout.wave_observed",
        [&] {
          StateWriter sw;
          sw.PutI64(now);
          sw.PutI64(now + options_.observe_hours_per_wave);
          return sw.Release();
        },
        [&](const std::string&) { return advance(options_.observe_hours_per_wave); },
        &payload));
    {
      StateReader sr(payload);
      int64_t begin = 0, end = 0;
      KEA_RETURN_IF_ERROR(sr.GetI64(&begin));
      KEA_RETURN_IF_ERROR(sr.GetI64(&end));
      wave.observe_begin = static_cast<sim::HourIndex>(begin);
      wave.observe_end = static_cast<sim::HourIndex>(end);
      now = wave.observe_end;
    }

    // -- WAVE_VERDICT: the guardrail decision, recorded before it is acted
    // on. A resumed round reuses the recorded verdict rather than judging
    // twice (the deterministic re-evaluation would match, but the record is
    // the authority).
    KEA_RETURN_IF_ERROR(step(
        DeploymentLedger::EventType::kWaveVerdict, wkey + "/verdict",
        "rollout.wave_verdict",
        [&] {
          GuardrailEvaluation eval =
              Evaluate(*store, treated, baseline_begin, start_hour,
                       wave.observe_begin, wave.observe_end);
          return EncodeEvaluation(eval);
        },
        nullptr, &payload));
    KEA_RETURN_IF_ERROR(DecodeEvaluation(payload, &wave.eval));
    wave.passed = wave.eval.pass();
    tripped = !wave.passed;
    report->waves.push_back(std::move(wave));

    if (tripped) {
      TripsCounter()->Increment();
      report->tripped_wave = static_cast<int>(w);
      // -- ROLLBACK: restore every applied wave, newest first.
      KEA_RETURN_IF_ERROR(step(
          DeploymentLedger::EventType::kRollback, rkey + "/rollback",
          "rollout.rollback",
          [&] {
            size_t total = 0;
            for (const MachineSnapshot& s : *snapshots) total += s.size();
            StateWriter sw;
            sw.PutU64(total);
            return sw.Release();
          },
          [&](const std::string&) -> Status {
            size_t restored = 0;
            Restore(*snapshots, cluster, &restored);
            return Status::OK();
          },
          &payload));
      StateReader sr(payload);
      uint64_t restored = 0;
      KEA_RETURN_IF_ERROR(sr.GetU64(&restored));
      report->machines_restored = restored;
      RollbacksCounter()->Increment();
      MachinesRestoredCounter()->Increment(restored);
      // The world is back to its entry state; don't restore again on return.
      snapshots->clear();
      report->outcome = Outcome::kRolledBack;
      return Status::OK();
    }
  }

  report->outcome = Outcome::kConverged;
  return Status::OK();
}

}  // namespace kea::core
