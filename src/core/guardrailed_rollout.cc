#include "core/guardrailed_rollout.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <unordered_set>

#include "common/crash_point.h"
#include "common/io.h"
#include "common/snapshot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::core {
namespace {

// Deterministic rollout counters: wave/trip/rollback totals are logical
// events (the rollout loop is single-threaded).
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

/// One applied wave: (machine id, pre-rollout max_containers) per changed
/// machine.
using MachineSnapshot = std::vector<std::pair<int, int>>;

/// Restores all snapshots, newest wave first.
void Restore(const std::vector<MachineSnapshot>& snapshots,
             sim::Cluster* cluster) {
  auto& machines = cluster->mutable_machines();
  for (auto wave = snapshots.rbegin(); wave != snapshots.rend(); ++wave) {
    for (auto entry = wave->rbegin(); entry != wave->rend(); ++entry) {
      machines[static_cast<size_t>(entry->first)].max_containers = entry->second;
    }
  }
}

/// WAVE_STARTED payload: the wave's end sub-cluster, then the sub-clusters.
Status DecodeWaveStart(const std::string& blob, int* end_sc,
                       std::vector<int>* sub_clusters) {
  StateReader r(blob);
  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r.GetInt(end_sc));
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    int sc = 0;
    KEA_RETURN_IF_ERROR(r.GetInt(&sc));
    sub_clusters->push_back(sc);
  }
  return Status::OK();
}

/// WAVE_APPLIED payload: per-machine (id, old max, new max) deltas.
using Deltas = std::vector<std::tuple<int, int, int>>;

std::string EncodeDeltas(const Deltas& deltas) {
  StateWriter w;
  w.PutU64(deltas.size());
  for (const auto& [id, old_max, new_max] : deltas) {
    w.PutInt(id);
    w.PutInt(old_max);
    w.PutInt(new_max);
  }
  return w.Release();
}

Status DecodeDeltas(const std::string& blob, Deltas* deltas) {
  StateReader r(blob);
  uint64_t count = 0;
  KEA_RETURN_IF_ERROR(r.GetU64(&count));
  for (uint64_t i = 0; i < count; ++i) {
    int id = 0, old_max = 0, new_max = 0;
    KEA_RETURN_IF_ERROR(r.GetInt(&id));
    KEA_RETURN_IF_ERROR(r.GetInt(&old_max));
    KEA_RETURN_IF_ERROR(r.GetInt(&new_max));
    deltas->emplace_back(id, old_max, new_max);
  }
  return Status::OK();
}

/// WAVE_OBSERVED payload: the observation window [begin, end).
Status DecodeWindow(const std::string& blob, sim::HourIndex* begin,
                    sim::HourIndex* end) {
  StateReader r(blob);
  int64_t b = 0, e = 0;
  KEA_RETURN_IF_ERROR(r.GetI64(&b));
  KEA_RETURN_IF_ERROR(r.GetI64(&e));
  *begin = static_cast<sim::HourIndex>(b);
  *end = static_cast<sim::HourIndex>(e);
  return Status::OK();
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

GuardrailEvaluation EvaluateGuardrails(const telemetry::TelemetryStore& store,
                                       const GuardrailThresholds& t,
                                       const std::vector<int>& machine_ids,
                                       sim::HourIndex baseline_begin,
                                       sim::HourIndex baseline_end,
                                       sim::HourIndex begin, sim::HourIndex end) {
  std::unordered_set<int> ids(machine_ids.begin(), machine_ids.end());
  WindowMetrics baseline = Measure(store, ids, baseline_begin, baseline_end);
  WindowMetrics observed = Measure(store, ids, begin, end, t.slo_target_latency_s);

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

StatusOr<GuardrailedRollout::Report> GuardrailedRollout::Execute(
    const std::vector<GroupRecommendation>& recommendations, sim::Cluster* cluster,
    const telemetry::TelemetryStore* store, sim::HourIndex start_hour,
    const AdvanceFn& advance, JournalContext* ctx) {
  using EventType = DeploymentLedger::EventType;
  KEA_RETURN_IF_ERROR(ValidateOptions());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (!advance) return Status::InvalidArgument("null advance function");
  if (ctx != nullptr && ctx->ledger == nullptr) {
    return Status::InvalidArgument("journal context without a ledger");
  }
  if (recommendations.empty()) {
    return Status::InvalidArgument("no recommendations to roll out");
  }

  KEA_ASSIGN_OR_RETURN(
      const std::vector<AppliedChange> batch,
      DeploymentModule::Clamp(recommendations, options_.deploy));
  std::map<sim::MachineGroupKey, int> targets;
  for (const AppliedChange& change : batch) {
    targets[change.group] = change.new_max_containers;
  }

  Report report;
  if (targets.empty()) {
    report.outcome = Outcome::kNoChange;
    return report;
  }

  int num_sc = cluster->num_subclusters();
  if (num_sc <= 0) return Status::FailedPrecondition("cluster has no sub-clusters");

  std::vector<MachineSnapshot> snapshots;
  // A real error restores every applied wave before it is returned. An
  // injected crash models abrupt process death instead: it leaves the world
  // exactly as the dying process would, and resume picks it up from the
  // journal. A storage failure leaves the world too: the journal holds the
  // applied waves, and the heal's checkpoint (or a resume) carries the round
  // on from them, which an in-memory undo would contradict.
  auto unwind = [&](const Status& error) {
    if (!CrashPoints::IsCrash(error) && !IsStorageFailure(error)) {
      Restore(snapshots, cluster);
    }
    return error;
  };

  const std::string rkey = "r" + std::to_string(ctx != nullptr ? ctx->round : 0);
  std::vector<int> treated;  ///< Cumulative machines changed across waves.
  sim::HourIndex now = start_hour;
  sim::HourIndex baseline_begin = std::max(0, start_hour - options_.baseline_hours);

  int next_sc = 0;
  for (size_t w = 0; w < options_.wave_fractions.size(); ++w) {
    const std::string wkey = rkey + "/w" + std::to_string(w);
    KEA_TRACE_SPAN("rollout.wave", {{"wave", std::to_string(w)},
                                    {"key", wkey},
                                    {"journaled", ctx != nullptr ? "1" : "0"}});
    WavesCounter()->Increment();
    WaveResult wave;
    wave.wave = static_cast<int>(w);

    // -- WAVE_STARTED: which sub-clusters this wave covers.
    std::string payload;
    Status status = JournaledStep(
        ctx, EventType::kWaveStarted, wkey + "/started", "rollout.wave_started",
        [&] {
          int end_sc = static_cast<int>(std::ceil(
              options_.wave_fractions[w] * static_cast<double>(num_sc)));
          end_sc = std::clamp(end_sc, next_sc, num_sc);
          if (w + 1 == options_.wave_fractions.size() &&
              options_.wave_fractions[w] >= 1.0) {
            end_sc = num_sc;  // Final full-fleet wave sweeps every remainder.
          }
          if (end_sc == next_sc && next_sc < num_sc) end_sc = next_sc + 1;
          StateWriter sw;
          sw.PutInt(end_sc);
          sw.PutU64(static_cast<uint64_t>(end_sc - next_sc));
          for (int sc = next_sc; sc < end_sc; ++sc) sw.PutInt(sc);
          return sw.Release();
        },
        nullptr, &payload);
    if (status.ok()) {
      status = DecodeWaveStart(payload, &next_sc, &wave.sub_clusters);
    }
    if (!status.ok()) return unwind(status);
    std::vector<int> wave_machines;
    for (int sc : wave.sub_clusters) {
      std::vector<int> ids = cluster->SubClusterMachines(sc);
      wave_machines.insert(wave_machines.end(), ids.begin(), ids.end());
    }

    // -- WAVE_APPLIED: per-machine (id, old, new) deltas, journaled before
    // the cluster is touched.
    status = JournaledStep(
        ctx, EventType::kWaveApplied, wkey + "/applied", "rollout.wave_applied",
        [&] {
          Deltas deltas;
          const auto& machines = cluster->machines();
          for (int id : wave_machines) {
            if (id < 0 || static_cast<size_t>(id) >= machines.size()) continue;
            const sim::Machine& m = machines[static_cast<size_t>(id)];
            auto it = targets.find(m.group());
            if (it == targets.end() || m.max_containers == it->second) continue;
            deltas.emplace_back(id, m.max_containers, it->second);
          }
          return EncodeDeltas(deltas);
        },
        [&](const std::string& p) -> Status {
          Deltas deltas;
          KEA_RETURN_IF_ERROR(DecodeDeltas(p, &deltas));
          auto& machines = cluster->mutable_machines();
          for (const auto& [id, old_max, new_max] : deltas) {
            if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
              return Status::OutOfRange("machine id " + std::to_string(id));
            }
            machines[static_cast<size_t>(id)].max_containers = new_max;
          }
          return Status::OK();
        },
        &payload);
    Deltas deltas;
    if (status.ok()) status = DecodeDeltas(payload, &deltas);
    if (!status.ok()) return unwind(status);
    wave.machines_changed = deltas.size();
    if (wave.machines_changed == 0) {
      // No targeted machine in this wave: nothing to observe, trivially safe.
      wave.passed = true;
      report.waves.push_back(std::move(wave));
      continue;
    }
    MachineSnapshot& snapshot = snapshots.emplace_back();
    for (const auto& [id, old_max, new_max] : deltas) {
      snapshot.emplace_back(id, old_max);
      treated.push_back(id);
    }

    // -- WAVE_OBSERVED: advance the world through the observation window.
    status = JournaledStep(
        ctx, EventType::kWaveObserved, wkey + "/observed", "rollout.wave_observed",
        [&] {
          StateWriter sw;
          sw.PutI64(now);
          sw.PutI64(now + options_.observe_hours_per_wave);
          return sw.Release();
        },
        [&](const std::string&) { return advance(options_.observe_hours_per_wave); },
        &payload);
    if (status.ok()) {
      status = DecodeWindow(payload, &wave.observe_begin, &wave.observe_end);
    }
    if (!status.ok()) return unwind(status);
    now = wave.observe_end;

    // -- WAVE_VERDICT: the guardrail decision, recorded before it is acted
    // on. A resumed round reuses the recorded verdict rather than judging
    // twice (the deterministic re-evaluation would match, but the record is
    // the authority).
    status = JournaledStep(
        ctx, EventType::kWaveVerdict, wkey + "/verdict", "rollout.wave_verdict",
        [&] {
          return EncodeEvaluation(EvaluateGuardrails(
              *store, options_.guardrails, treated, baseline_begin, start_hour,
              wave.observe_begin, wave.observe_end));
        },
        nullptr, &payload);
    if (status.ok()) status = DecodeEvaluation(payload, &wave.eval);
    if (!status.ok()) return unwind(status);
    wave.passed = wave.eval.pass();
    const bool tripped = !wave.passed;
    report.waves.push_back(std::move(wave));

    if (tripped) {
      TripsCounter()->Increment();
      report.tripped_wave = static_cast<int>(w);
      // -- ROLLBACK: restore every applied wave, newest first.
      status = JournaledStep(
          ctx, EventType::kRollback, rkey + "/rollback", "rollout.rollback",
          [&] {
            size_t total = 0;
            for (const MachineSnapshot& s : snapshots) total += s.size();
            StateWriter sw;
            sw.PutU64(total);
            return sw.Release();
          },
          [&](const std::string&) {
            Restore(snapshots, cluster);
            return Status::OK();
          },
          &payload);
      uint64_t restored = 0;
      if (status.ok()) status = StateReader(payload).GetU64(&restored);
      if (!status.ok()) return unwind(status);
      report.machines_restored = restored;
      RollbacksCounter()->Increment();
      MachinesRestoredCounter()->Increment(restored);
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

}  // namespace kea::core
