// Ablation (experiment design, Section 7): the paper enumerates three A/B
// settings — ideal (every other machine in a rack), time-slicing, and hybrid
// — and warns that time-slicing windows must dodge workload seasonality
// ("every five hours (instead of 24 hours to avoid day of week effects)").
// This bench measures the *same* known treatment (the processor Feature,
// true task-latency effect ~ -4.4%) under each design and compares the
// estimates. Every design is one experiment-fabric flight after a baseline
// Sunday: the ideal row lets the fabric deal the arms itself (its one split
// rule), the time-slicing rows pin one machine set to both arms.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/experiment_fabric.h"

namespace {

using namespace kea;

/// Runs `req` alone through the fabric, unjournaled, after a baseline day,
/// and returns its treatment arm's task-latency estimate.
StatusOr<core::TreatmentEffect> FlyFeature(bench::BenchEnv* env,
                                           core::FlightRequest req) {
  req.sku = 4;
  req.arms.resize(2);
  req.arms[1].feature_enabled = true;
  // The bench measures the estimator, not guardrail outcomes.
  req.guardrails.max_latency_ratio = 100.0;
  req.guardrails.max_queue_p99_ratio = 100.0;
  req.guardrails.queue_p99_floor_ms = 1e12;
  req.guardrails.max_utilization = 1.0;
  sim::HourIndex now = env->SimulateBaselineDay();
  KEA_ASSIGN_OR_RETURN(
      core::ExperimentFabric::Report report,
      core::ExperimentFabric(core::ExperimentFabric::Options())
          .Run({req}, &env->cluster, &env->store, now,
               [&](int hours) {
                 env->Run(now, hours);
                 now += hours;
                 return Status::OK();
               },
               nullptr));
  const core::ExperimentFabric::FlightConclusion& flight = report.flights[0];
  KEA_RETURN_IF_ERROR(core::ConclusionStatus(flight));
  if (!flight.effect_ok) return Status::FailedPrecondition("no estimate");
  return flight.arms[1].task_latency;
}

}  // namespace

int main() {
  bench::PrintBanner(
      "Ablation - experiment designs measuring the same known effect",
      "ideal & 5h slicing recover ~-4.4% latency; 24h-aligned slicing is "
      "noisier/biased by day-of-week seasonality");

  // Ground truth: feature boosts speed 1.05 on the CPU part of latency.
  bench::BenchEnv probe = bench::BenchEnv::Make(100);
  double base = probe.model.TaskLatencySeconds({0, 4}, 0.6, 14, 0.0, false);
  double boosted = probe.model.TaskLatencySeconds({0, 4}, 0.6, 14, 0.0, true);
  double truth = boosted / base - 1.0;
  std::printf("ground-truth latency effect at the median point: %+.2f%%\n\n",
              truth * 100.0);

  bench::PrintRow({"design", "estimate", "abs_error_pts", "t"}, 26);
  auto row = [&](const char* label, const core::TreatmentEffect& effect) {
    double err = std::fabs(effect.percent_change - truth);
    bench::PrintRow({label, bench::Pct(effect.percent_change, 2),
                     bench::Fmt(err * 100.0, 2), bench::Fmt(effect.t_value, 1)},
                    26);
    return err;
  };

  // Ideal: the fabric deals 100 machines per arm within racks and SC strata,
  // one week.
  bench::BenchEnv ideal_env = bench::BenchEnv::Make(2000, 71);
  core::FlightRequest ideal;
  ideal.name = "ideal";
  ideal.machines_per_arm = 100;
  ideal.window_hours = sim::kHoursPerDay;
  ideal.num_windows = 7;
  auto ideal_effect = FlyFeature(&ideal_env, ideal);
  if (!ideal_effect.ok()) {
    std::fprintf(stderr, "%s\n", ideal_effect.status().ToString().c_str());
    return 1;
  }
  const double ideal_err = row("ideal (paired racks)", *ideal_effect);

  // Time-slicing: 200 machines alternate arms every window over one week
  // (the trailing partial window is dropped).
  auto run_slicing = [&](int window_hours, const char* label) -> double {
    bench::BenchEnv env = bench::BenchEnv::Make(2000, 72);
    std::vector<int> machines;
    for (const sim::Machine& m : env.cluster.machines()) {
      if (m.sku == 4 && machines.size() < 200) machines.push_back(m.id);
    }
    core::FlightRequest sliced;
    sliced.name = label;
    sliced.pinned_arms = {machines, machines};
    sliced.window_hours = window_hours;
    sliced.num_windows = sim::kHoursPerWeek / window_hours;
    auto effect = FlyFeature(&env, sliced);
    if (!effect.ok()) {
      std::fprintf(stderr, "%s\n", effect.status().ToString().c_str());
      return -1.0;
    }
    return row(label, *effect);
  };
  const double slice5_err = run_slicing(5, "time-slicing, 5h windows");
  const double slice24_err = run_slicing(24, "time-slicing, 24h windows");
  if (slice5_err < 0.0 || slice24_err < 0.0) return 1;

  bool sound_designs_accurate = ideal_err < 0.015 && slice5_err < 0.02;
  std::printf(
      "\nideal and 5h-sliced estimates within ~1-2 points of truth: %s\n"
      "24h-aligned slicing error: %.2f points (the paper's warned-against "
      "setting)\n",
      sound_designs_accurate ? "yes" : "no", slice24_err * 100.0);
  return sound_designs_accurate ? 0 : 1;
}
