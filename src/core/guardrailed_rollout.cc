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
struct WaveStart {
  int end_sc = 0;
  std::vector<int> sub_clusters;
};

template <typename Ar>
void Persist(Ar& ar, WaveStart& start) {
  ar(start.end_sc, start.sub_clusters);
}

/// WAVE_OBSERVED payload: the observation window [begin, end).
using Window = std::pair<sim::HourIndex, sim::HourIndex>;

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

  // append, not "r" + ...: GCC 12 misreports -Wrestrict on that inlining.
  const std::string rkey =
      std::string("r").append(std::to_string(ctx != nullptr ? ctx->round : 0));
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
          WaveStart start{end_sc, {}};
          for (int sc = next_sc; sc < end_sc; ++sc) {
            start.sub_clusters.push_back(sc);
          }
          return Encode(start);
        },
        nullptr, &payload);
    WaveStart start;
    if (status.ok()) status = Decode(payload, &start);
    if (!status.ok()) return unwind(status);
    next_sc = start.end_sc;
    wave.sub_clusters = std::move(start.sub_clusters);
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
          std::vector<MachineDelta> deltas;
          const auto& machines = cluster->machines();
          for (int id : wave_machines) {
            if (id < 0 || static_cast<size_t>(id) >= machines.size()) continue;
            const sim::Machine& m = machines[static_cast<size_t>(id)];
            auto it = targets.find(m.group());
            if (it == targets.end() || m.max_containers == it->second) continue;
            deltas.push_back({id, m.max_containers, it->second});
          }
          return Encode(deltas);
        },
        [&](const std::string& p) -> Status {
          std::vector<MachineDelta> deltas;
          KEA_RETURN_IF_ERROR(Decode(p, &deltas));
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
    std::vector<MachineDelta> deltas;
    if (status.ok()) status = Decode(payload, &deltas);
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
        [&] { return Encode(Window{now, now + options_.observe_hours_per_wave}); },
        [&](const std::string&) { return advance(options_.observe_hours_per_wave); },
        &payload);
    Window window;
    if (status.ok()) status = Decode(payload, &window);
    if (!status.ok()) return unwind(status);
    std::tie(wave.observe_begin, wave.observe_end) = window;
    now = wave.observe_end;

    // -- WAVE_VERDICT: the guardrail decision, recorded before it is acted
    // on. A resumed round reuses the recorded verdict rather than judging
    // twice (the deterministic re-evaluation would match, but the record is
    // the authority).
    status = JournaledStep(
        ctx, EventType::kWaveVerdict, wkey + "/verdict", "rollout.wave_verdict",
        [&] {
          return Encode(EvaluateGuardrails(
              *store, options_.guardrails, treated, baseline_begin, start_hour,
              wave.observe_begin, wave.observe_end));
        },
        nullptr, &payload);
    if (status.ok()) status = Decode(payload, &wave.eval);
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
            uint64_t total = 0;
            for (const MachineSnapshot& s : snapshots) total += s.size();
            return Encode(total);
          },
          [&](const std::string&) {
            Restore(snapshots, cluster);
            return Status::OK();
          },
          &payload);
      uint64_t restored = 0;
      if (status.ok()) status = Decode(payload, &restored);
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

}  // namespace kea::core
