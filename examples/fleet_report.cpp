// Fleet report: the operator-facing artifacts KEA produces on its daily
// cadence (Section 4.1's dashboards "embraced by the engineering teams").
// Simulates two weeks, then prints/saves:
//   - the weekly utilization dashboard (Figure 1 view),
//   - the scatter view for one machine group (Figure 8 view),
//   - the calibrated What-if model report as CSV (the Phase II artifact),
//   - an experiment sizing plan for the next A/B study, and
//   - a telemetry CSV export sample.
//
// Build & run:  ./build/examples/fleet_report

#include <cstdio>
#include <memory>

#include "kea.h"
#include "apps/experiment_planner.h"

int main() {
  using namespace kea;

  apps::KeaSession::Config config;
  config.machines = 600;
  auto session_or = apps::KeaSession::Create(config);
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  apps::KeaSession& session = **session_or;
  if (Status s = session.Simulate(2 * sim::kHoursPerWeek); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // --- Dashboard: weekly utilization --------------------------------------
  auto week = telemetry::RenderUtilizationWeek(
      session.store(), telemetry::HourRangeFilter(0, sim::kHoursPerWeek));
  if (week.ok()) std::printf("%s\n", week->c_str());

  // --- Dashboard: the Figure 8 scatter for SC2-Gen4.1 ---------------------
  telemetry::PerformanceMonitor monitor(session.mutable_store());
  auto points =
      monitor.UtilizationThroughputScatter(1200, telemetry::GroupFilter({1, 5}));
  auto scatter = telemetry::RenderScatter(points, 12, 60, "cpu_utilization",
                                          "data_read_mb (SC2-Gen4.1)");
  if (scatter.ok()) std::printf("%s\n", scatter->c_str());

  // --- Phase II artifact: the calibrated model report ---------------------
  auto whatif = core::WhatIfEngine::Fit(session.store(), nullptr,
                                        core::WhatIfEngine::Options());
  if (!whatif.ok()) {
    std::fprintf(stderr, "%s\n", whatif.status().ToString().c_str());
    return 1;
  }
  std::string model_csv = core::WhatIfModelsToCsv(*whatif);
  std::printf("calibrated model report (%zu groups):\n%s\n",
              whatif->models().size(),
              model_csv.substr(0, model_csv.find('\n')).c_str());
  const char* model_path = "/tmp/kea_models.csv";
  if (core::SaveWhatIfModels(*whatif, model_path).ok()) {
    std::printf("  full report written to %s\n\n", model_path);
  }

  // --- Next experiment sizing ----------------------------------------------
  apps::ExperimentPlanner::Options popt;
  popt.min_detectable_effect = 0.01;
  apps::ExperimentPlanner planner(popt);
  auto plan = planner.PlanDataReadExperiment(session.store(), session.cluster(),
                                             /*sku=*/4);
  if (plan.ok()) {
    std::printf("to detect a 1%% Total-Data-Read effect on Gen3.2 "
                "(noise %.1f%% per machine-day):\n",
                plan->relative_stddev * 100.0);
    std::printf("  %lld machine-days per arm -> %d machines x %d days "
                "(%s; achieved MDE %.2f%%)\n\n",
                static_cast<long long>(plan->machine_days_per_arm),
                plan->machines_per_arm, plan->days,
                plan->feasible ? "feasible" : "NOT feasible on this cluster",
                plan->achieved_mde * 100.0);
  }

  // --- Flights panel: a concurrent fabric round ----------------------------
  // Three overlapping A/B flights through the experiment fabric: two feature
  // flights on disjoint SKUs run concurrently on rack-exclusive arms, and a
  // capacity-knob flight rides along under the same blast-radius budget.
  {
    auto flight = [](const char* name, sim::SkuId sku) {
      core::FlightRequest req;
      req.name = name;
      req.sku = sku;
      req.arms.resize(2);
      req.arms[1].feature_enabled = true;
      req.machines_per_arm = 8;
      req.window_hours = 6;
      req.num_windows = 2;
      // Small arms over short windows are noisy; give the report's flights
      // headroom over the production-strict defaults so the panel shows
      // conclusions, not noise trips.
      req.guardrails.max_latency_ratio = 1.5;
      req.guardrails.max_queue_p99_ratio = 5.0;
      req.guardrails.queue_p99_floor_ms = 500.0;
      return req;
    };
    core::FlightRequest capacity = flight("containers+4 Gen4.2", 5);
    capacity.arms[1] = core::ConfigPatch();
    capacity.arms[1].max_containers = 20;
    auto fabric = session.RunExperimentFabric(
        {flight("feature Gen3.1", 3), flight("feature Gen3.2", 4), capacity},
        apps::KeaSession::FabricRoundOptions());
    if (fabric.ok()) {
      std::printf(
          "flights panel (%zu queued, %zu admitted, max %zu concurrent, "
          "peak %zu machines):\n",
          fabric->flights.size(), static_cast<size_t>(fabric->admitted),
          static_cast<size_t>(fabric->max_concurrent),
          static_cast<size_t>(fabric->peak_flighted_machines));
      for (const auto& f : fabric->flights) {
        std::printf("  %-22s ", f.name.c_str());
        if (!f.admitted) {
          std::printf("REJECTED: %s\n", core::InterferenceReasonToString(f.rejected));
          continue;
        }
        std::printf("hours %d-%d  racks %zu  ", f.start_hour, f.end_hour,
                    f.racks.size());
        if (f.tripped) {
          std::printf("TRIPPED window %d arm %d, rolled back (%zu machines "
                      "restored): %s\n",
                      f.tripped_window, f.tripped_arm, f.machines_restored,
                      f.trip_eval.Describe().c_str());
        } else if (f.effect_ok) {
          // Effects are fractions; print them as percents.
          const auto& arm = f.arms[1];
          std::printf("data read %+.2f%% [%+.2f%%, %+.2f%%]%s\n",
                      arm.data_read.percent_change * 100.0,
                      arm.data_read_ci_low * 100.0, arm.data_read_ci_high * 100.0,
                      f.deferrals > 0 ? "  (deferred at admission)" : "");
        } else {
          std::printf("no measurable effect window\n");
        }
      }
      std::printf("\n");
    } else {
      std::fprintf(stderr, "%s\n", fabric.status().ToString().c_str());
    }
  }

  // --- Telemetry export -----------------------------------------------------
  telemetry::TelemetryStore sample;
  for (size_t i = 0; i < 5 && i < session.store().size(); ++i) {
    sample.Append(session.store().records()[i]);
  }
  std::printf("telemetry CSV sample (5 of %zu machine-hours):\n%s",
              session.store().size(), sample.ToCsv().c_str());

  // --- Drift & model-health panel -------------------------------------------
  // Arm the self-healing loop retroactively (the detector catches up on the
  // two clean weeks above, which prime its weekly baselines), then let a
  // crash storm chew on the fleet for four days and report what the drift
  // detectors and the model-health breaker saw.
  if (session.EnableSelfHealing(apps::KeaSession::SelfHealingConfig()).ok()) {
    sim::FleetFaultProfile storm;
    storm.crash_rate_per_hour = 0.02;
    storm.mean_repair_hours = 8.0;
    if (session.EnableFleetChaos({storm, /*seed=*/7}).ok() &&
        session.Simulate(4 * sim::kHoursPerDay).ok()) {
      const telemetry::DriftDetector& drift = *session.drift_detector();
      const core::ModelHealth& health = *session.model_health();
      std::printf("drift & model-health panel (after a 4-day crash storm):\n");
      for (size_t m = 0; m < telemetry::DriftDetector::kNumMetrics; ++m) {
        std::printf("  %-20s %zu alarm(s)\n",
                    telemetry::DriftDetector::MetricName(m),
                    drift.alarm_counts()[m]);
      }
      std::printf("  max drift %.1f sigma; breaker %s", drift.max_drift(),
                  core::ModelHealth::StateName(health.state()));
      if (health.in_safe_mode()) {
        std::printf(" (tripped at hour %d: %s; deployments held)",
                    health.tripped_at(), health.trip_reason().c_str());
      }
      std::printf("\n  fleet: %zu crashes, %zu machine-down-hours, %zu down now\n\n",
                  session.fleet_faults()->counters().crashes,
                  session.fleet_faults()->counters().machine_down_hours,
                  session.fleet_faults()->machines_down_now());
    }
  }

  // --- Serving statusz: the tuning service under load ------------------------
  // A short deterministic drive of kea::serve with overload control on: one
  // tenant, a burst of work against the virtual clock, then the operational
  // snapshot every instrument above feeds — rung, breakers, SLO burn,
  // sojourn percentiles, cache hit ratio, queue depth.
  {
    serve::TuningService::Options sopt;
    sopt.num_threads = 0;  // drain on this thread: fully deterministic
    sopt.overload.enabled = true;
    auto service = std::make_unique<serve::TuningService>(sopt);
    apps::KeaSession::Config tiny;
    tiny.machines = 50;
    auto tenant = service->AddTenant("fleet-report", tiny);
    if (tenant.ok()) {
      serve::SubmitOptions submit;
      submit.deadline_ms = 400;
      int64_t now = 0;
      for (int round = 0; round < 6; ++round) {
        (void)service->SubmitSimulate(tenant.value(), 6, submit);
        now += 50;
        service->AdvanceVirtualTime(now);
        service->RunPending();
      }
      now += 500;
      service->AdvanceVirtualTime(now);
      service->RunPending();
      std::printf("\n%s", service->Statusz().c_str());
    }
  }

  // --- Ops view: what the pipeline itself did --------------------------------
  // Every deterministic counter the run incremented — fits, thread-pool jobs,
  // snapshot writes — rendered beside the fleet views above.
  std::printf("\n%s", telemetry::RenderObsPanel().c_str());

  // --- Prometheus exposition sample ------------------------------------------
  // The same registry, rendered in Prometheus text format (deterministic
  // instruments only here; pass include_timing for the full scrape).
  std::string prom = obs::Registry::Get().RenderPrometheus(false);
  size_t shown = 0, pos = 0;
  std::printf("\nprometheus exposition sample:\n");
  while (pos < prom.size() && shown < 12) {
    size_t eol = prom.find('\n', pos);
    if (eol == std::string::npos) eol = prom.size();
    std::printf("  %s\n", prom.substr(pos, eol - pos).c_str());
    pos = eol + 1;
    ++shown;
  }
  std::printf("  ... (%zu bytes total)\n", prom.size());
  return 0;
}
