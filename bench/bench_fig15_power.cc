// Regenerates Figure 15: performance impact of power capping. Experimental
// tuning in the hybrid setting: per cap level, four concurrent groups of one
// SKU (A: baseline, B: Feature, C: cap, D: cap+Feature), ~120 machines each,
// >24h per round, compared on normalized metrics (Bytes per CPU Time, Bytes
// per Second). Each round is one 4-arm experiment-fabric flight; the rounds
// follow a baseline Sunday. Paper shape: Feature always helps (~+5% at 10%
// cap); deeper caps degrade, with Feature-off degrading more.

#include <cstdio>

#include "apps/power_capping.h"
#include "bench/bench_util.h"

int main() {
  using namespace kea;
  bench::PrintBanner(
      "Figure 15 - performance impact of power capping x Feature",
      "Feature on always above Feature off; degradation grows with cap depth");

  bench::BenchEnv env = bench::BenchEnv::Make(/*machines=*/2500, /*seed=*/31);

  apps::PowerCappingStudy::Options options;
  options.sku = 4;  // Gen3.2.
  options.cap_levels = {0.10, 0.15, 0.20, 0.25, 0.30};
  options.group_size = 120;
  options.hours_per_round = 26;
  apps::PowerCappingStudy study(options);
  const sim::HourIndex monday = env.SimulateBaselineDay();
  auto result =
      study.Run(env.model, &env.cluster, env.engine.get(), &env.store, monday);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  bench::PrintRow({"cap_level", "feature", "d_bytes_per_cpu", "d_bytes_per_sec",
                   "avg_watts", "t_vs_A"});
  for (const auto& cell : result->cells) {
    bench::PrintRow({cell.capped ? bench::Pct(-cell.cap_level, 0) : "0%",
                     cell.feature ? "on" : "off",
                     bench::Pct(cell.bytes_per_cpu_time_change, 1),
                     bench::Pct(cell.bytes_per_second_change, 1),
                     bench::Fmt(cell.avg_power_watts, 0),
                     bench::Fmt(cell.t_value, 1)});
  }

  // Shape checks.
  bool feature_dominates = true;
  double on_at_cap[2] = {0, 0};  // Indexed by feature at each (cap, on/off) pair.
  for (const auto& a : result->cells) {
    if (!a.capped) continue;
    for (const auto& b : result->cells) {
      if (b.capped && b.cap_level == a.cap_level && a.feature && !b.feature) {
        if (a.bytes_per_cpu_time_change < b.bytes_per_cpu_time_change) {
          feature_dominates = false;
        }
      }
    }
  }
  (void)on_at_cap;

  std::printf("\nrecommended cap: %s below provisioned (saves %.0f W/machine)\n",
              bench::Pct(result->recommended_cap_level, 0).c_str(),
              result->provisioned_watts_saved_per_machine);
  std::printf("Feature-on dominates Feature-off at every cap: %s "
              "(paper: 'in all cases, having Feature enabled improves')\n",
              feature_dominates ? "yes" : "no");
  return feature_dominates ? 0 : 1;
}
