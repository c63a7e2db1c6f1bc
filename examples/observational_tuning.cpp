// Observational tuning, end to end (Section 5 of the paper): the full
// production loop KEA runs for the YARN max_num_running_containers parameter.
//
//   baseline month -> fit models -> LP optimization -> pilot flighting ->
//   conservative rollout -> after month -> treatment effects & capacity $$.
//
// A final act re-runs the loop through KeaSession's crash-safe control plane:
// every step journaled, a checkpoint on disk, and the session torn down and
// resumed mid-stream to show the durable state carries the whole world.
//
// Build & run:  ./build/examples/observational_tuning

#include <sys/stat.h>

#include <cstdio>
#include <memory>
#include <string>

#include "apps/capacity.h"
#include "apps/session.h"
#include "apps/yarn_tuner.h"
#include "core/deployment.h"
#include "core/experiment_fabric.h"
#include "core/treatment.h"
#include "sim/fluid_engine.h"
#include "telemetry/perf_monitor.h"

namespace {

constexpr int kMonthHours = 28 * kea::sim::kHoursPerDay;

int Fail(const kea::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  using namespace kea;

  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = 1000;
  auto cluster_or = sim::Cluster::Build(model.catalog(), spec);
  if (!cluster_or.ok()) return Fail(cluster_or.status());
  sim::Cluster& cluster = cluster_or.value();

  sim::FluidEngine engine(&model, &cluster, &workload, sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  // ---- Phase I/II: observe a month, fit, optimize -------------------------
  std::printf("[1/5] simulating the baseline month...\n");
  if (Status s = engine.Run(0, kMonthHours, &store); !s.ok()) return Fail(s);

  std::printf("[2/5] fitting the What-if Engine and solving the LP...\n");
  apps::YarnConfigTuner::Options topt;
  topt.max_step = 2;
  apps::YarnConfigTuner tuner(topt);
  auto plan = tuner.Propose(store, telemetry::HourRangeFilter(0, kMonthHours),
                            cluster);
  if (!plan.ok()) return Fail(plan.status());
  std::printf("      predicted capacity gain %+.2f%%, predicted latency ratio %.4f\n",
              plan->predicted_capacity_gain * 100.0,
              plan->predicted_latency_after_s / plan->predicted_latency_before_s);

  // ---- Phase III: pilot flighting (the Section 5.2.2 ladder) --------------
  std::printf("[3/5] pilot flighting on 40 machines of one group's SKU...\n");
  const core::GroupRecommendation* pilot = nullptr;
  for (const auto& rec : plan->recommendations) {
    if (rec.recommended_max_containers > rec.current_max_containers) pilot = &rec;
  }
  if (pilot == nullptr) {
    std::fprintf(stderr, "no group grows; nothing to pilot\n");
    return 1;
  }
  // One fabric flight on the group's SKU: 20 machines per arm dealt within
  // racks, the pilot arm one container above today's config for two days,
  // guarded against its own pre-pilot week.
  core::FlightRequest pilot_flight;
  pilot_flight.name = "pilot_increase";
  pilot_flight.sku = pilot->group.sku;
  pilot_flight.arms.resize(2);
  pilot_flight.arms[1].max_containers = pilot->current_max_containers + 1;
  pilot_flight.machines_per_arm = 20;
  pilot_flight.window_hours = 24;
  pilot_flight.num_windows = 2;
  pilot_flight.guardrails.max_latency_ratio = 1.5;
  pilot_flight.guardrails.max_queue_p99_ratio = 5.0;
  pilot_flight.guardrails.queue_p99_floor_ms = 500.0;
  // The pilot starts on a Monday: its guardrail baseline is the whole week
  // before, not the quiet Sunday alone.
  core::ExperimentFabric::Options fabric;
  fabric.baseline_hours = sim::kHoursPerWeek;
  sim::HourIndex now = kMonthHours;
  auto flown = core::ExperimentFabric(fabric)
                   .Run({pilot_flight}, &cluster, &store, now,
                        [&](int hours) {
                          KEA_RETURN_IF_ERROR(engine.Run(now, hours, &store));
                          now += hours;
                          return Status::OK();
                        },
                        nullptr);
  if (!flown.ok()) return Fail(flown.status());
  const core::ExperimentFabric::FlightConclusion& flight = flown->flights[0];
  if (Status s = core::ConclusionStatus(flight); !s.ok()) return Fail(s);

  auto pilot_window = telemetry::AndFilter(
      telemetry::HourRangeFilter(flight.start_hour, flight.end_hour),
      telemetry::MachineSetFilter(flight.arms[1].machines));
  double pilot_containers = 0.0;
  size_t pilot_count = 0;
  for (const auto& r : store.Query(pilot_window)) {
    pilot_containers += r.avg_running_containers;
    ++pilot_count;
  }
  std::printf("      pilot arm ran %.2f containers/machine (config %d)\n",
              pilot_containers / static_cast<double>(pilot_count),
              pilot->current_max_containers + 1);

  // ---- Conservative production rollout -------------------------------------
  std::printf("[4/5] rolling out (max +-1 per group per round)...\n");
  core::DeploymentModule deploy;
  auto applied = deploy.ApplyConservatively(plan->recommendations, &cluster);
  if (!applied.ok()) return Fail(applied.status());
  for (const auto& change : *applied) {
    std::printf("      %-10s %d -> %d%s\n", sim::GroupLabel(change.group).c_str(),
                change.old_max_containers, change.new_max_containers,
                change.clamped ? "  (clamped)" : "");
  }

  // ---- After month + evaluation --------------------------------------------
  std::printf("[5/5] simulating the after month and evaluating...\n");
  const int after_start = kMonthHours + 48;
  if (Status s = engine.Run(after_start, kMonthHours, &store); !s.ok()) return Fail(s);

  auto before = telemetry::HourRangeFilter(0, kMonthHours);
  auto after = telemetry::HourRangeFilter(after_start, after_start + kMonthHours);
  telemetry::PerformanceMonitor monitor(&store);

  auto data_before = store.Extract(
      [](const telemetry::MachineHourRecord& r) { return r.data_read_mb; }, before);
  auto data_after = store.Extract(
      [](const telemetry::MachineHourRecord& r) { return r.data_read_mb; }, after);
  auto effect = core::EstimateTreatmentEffect("Total Data Read", data_before,
                                              data_after);
  if (!effect.ok()) return Fail(effect.status());

  auto lat_before = monitor.ClusterAverageTaskLatency(before);
  auto lat_after = monitor.ClusterAverageTaskLatency(after);
  if (!lat_before.ok() || !lat_after.ok()) return Fail(lat_before.status());

  apps::CapacityConverter converter;
  auto capacity = converter.FromWindows(store, before, after);
  if (!capacity.ok()) return Fail(capacity.status());

  std::printf("\n================ deployment report ================\n");
  std::printf("throughput:  %+.2f%% (t = %.2f, %s)\n",
              effect->percent_change * 100.0, effect->t_value,
              effect->significant ? "significant" : "not significant");
  std::printf("latency:     %.2fs -> %.2fs (%+.2f%%)\n", *lat_before, *lat_after,
              (*lat_after / *lat_before - 1.0) * 100.0);
  std::printf("capacity:    %+.2f%% at %s latency\n",
              capacity->capacity_gain * 100.0,
              capacity->latency_neutral ? "equal" : "CHANGED");
  std::printf("fleet value: $%.1fM per year at 300k machines\n",
              capacity->dollars_per_year / 1e6);

  // ---- Encore: the same loop, crash-safe --------------------------------
  // KeaSession wraps the loop above behind a journaled control plane: the
  // plan and every rollout wave are write-ahead journaled, and checkpoints
  // make the whole session resumable. We checkpoint mid-stream, throw the
  // session away (a stand-in for the process dying), resume from disk, and
  // carry on.
  std::printf("\n[encore] guarded tuning round with checkpoint/resume...\n");
  const char* state_dir = "observational_tuning_state";
  ::mkdir(state_dir, 0755);  // ok if it already exists
  std::remove((std::string(state_dir) + "/ledger.kea").c_str());
  std::remove((std::string(state_dir) + "/checkpoint.kea").c_str());

  apps::KeaSession::Config scfg;
  scfg.machines = 200;
  scfg.seed = 7;
  auto session_or = apps::KeaSession::Create(scfg);
  if (!session_or.ok()) return Fail(session_or.status());
  std::unique_ptr<apps::KeaSession> session = std::move(session_or).value();
  if (Status s = session->EnableDurability(state_dir); !s.ok()) return Fail(s);
  if (Status s = session->Simulate(2 * sim::kHoursPerWeek); !s.ok()) return Fail(s);

  apps::KeaSession::GuardedRoundOptions gopt;
  gopt.lookback_hours = 2 * sim::kHoursPerWeek;
  gopt.rollout.wave_fractions = {0.25, 1.0};
  gopt.rollout.observe_hours_per_wave = 12;
  gopt.rollout.baseline_hours = 24;
  auto guarded = session->RunGuardedTuningRound(gopt);
  if (!guarded.ok()) return Fail(guarded.status());
  const sim::HourIndex clock_before = session->now();
  std::printf("      round done: %zu wave(s), outcome %s, clock at hour %lld\n",
              guarded->rollout.waves.size(),
              guarded->rollout.outcome ==
                      core::GuardrailedRollout::Outcome::kConverged
                  ? "converged"
                  : "not converged",
              static_cast<long long>(clock_before));

  // "Crash": drop the live session. Everything needed to continue is on disk.
  session.reset();
  auto resumed_or = apps::KeaSession::Resume(state_dir);
  if (!resumed_or.ok()) return Fail(resumed_or.status());
  std::unique_ptr<apps::KeaSession> resumed = std::move(resumed_or).value();
  std::printf("      resumed from %s: clock %lld (%s), %zu telemetry records\n",
              state_dir, static_cast<long long>(resumed->now()),
              resumed->now() == clock_before ? "matches" : "MISMATCH",
              resumed->store().size());

  // The resumed session is a full replacement: validate last round's models
  // against post-deployment telemetry as if nothing happened.
  if (Status s = resumed->Simulate(3 * sim::kHoursPerDay); !s.ok()) return Fail(s);
  auto validation = resumed->ValidateModels(core::ModelValidator::Options());
  if (!validation.ok()) return Fail(validation.status());
  std::printf("      post-resume validation: %s\n",
              validation->models_valid ? "models valid" : "drift detected");
  return 0;
}
