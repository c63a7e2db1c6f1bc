// Regenerates Table 4: performance metrics for software configurations SC1
// (local temp store on HDD) vs SC2 (local temp store on SSD), from the ideal
// experiment setting — every other machine in the same racks and SC strata,
// five consecutive workdays, run as one experiment-fabric flight after a
// baseline Sunday. Paper: Total Data Read +10.9% (t=40.4), Average Task
// Execution Time -5.2% (t=27.1); SC2 dominates on all metrics.

#include <cstdio>

#include "apps/sc_selector.h"
#include "bench/bench_util.h"

int main() {
  using namespace kea;
  bench::PrintBanner(
      "Table 4 - SC1 vs SC2 (ideal setting, ~600 machines/arm, 5 workdays)",
      "SC2 raises Total Data Read ~+10%, cuts task latency ~-5%, large t");

  bench::BenchEnv env = bench::BenchEnv::Make(/*machines=*/6000, /*seed=*/41);

  apps::ScSelector::Options options;
  options.sku = 3;            // Gen3.1 racks.
  options.max_racks = 35;     // ~700 machines per arm at 40/rack.
  options.min_machines_per_arm = 300;
  options.workdays = 5;
  apps::ScSelector selector(options);
  const sim::HourIndex monday = env.SimulateBaselineDay();
  auto result = selector.Run(&env.cluster, env.engine.get(), &env.store, monday);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("arm sizes: control (SC1) %zu, treatment (SC2) %zu; balanced: %s\n\n",
              result->assignment.control.size(),
              result->assignment.treatment.size(),
              result->balance.balanced ? "yes" : "no");

  bench::PrintRow({"Name", "SC1", "SC2", "% Changes", "t-value"}, 22);
  auto row = [&](const core::TreatmentEffect& e) {
    bench::PrintRow({e.metric, bench::Fmt(e.control_mean, 2),
                     bench::Fmt(e.treatment_mean, 2),
                     bench::Pct(e.percent_change, 1), bench::Fmt(e.t_value, 1)},
                    22);
  };
  row(result->data_read);
  row(result->task_latency);

  std::printf("\npaper reference:      Total Data Read +10.9%% (t=40.4), "
              "Task Execution Time -5.2%% (t=27.1)\n");
  std::printf("SC2 dominates SC1 with statistical significance: %s\n",
              result->sc2_dominates ? "yes" : "no");
  return result->sc2_dominates ? 0 : 1;
}
