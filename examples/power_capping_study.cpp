// Experimental tuning (Section 7.2 of the paper): power capping. Telemetry
// alone cannot predict what a never-deployed power cap does, so KEA runs
// controlled in-production experiments: per cap level, four concurrent
// machine groups (A: baseline, B: Feature on, C: capped, D: capped+Feature)
// of the same SKU, compared on load-insensitive normalized metrics.
//
// Build & run:  ./build/examples/power_capping_study

#include <cstdio>

#include "apps/power_capping.h"
#include "sim/fluid_engine.h"

int main() {
  using namespace kea;

  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = 2500;
  auto cluster = sim::Cluster::Build(model.catalog(), spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 1;
  }
  sim::FluidEngine engine(&model, &cluster.value(), &workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  apps::PowerCappingStudy::Options options;
  options.sku = 4;  // Gen3.2.
  options.cap_levels = {0.10, 0.15, 0.20, 0.25, 0.30};
  options.group_size = 120;
  options.hours_per_round = 26;

  std::printf("running %zu experiment rounds (4 groups x %d machines, %dh each)...\n",
              options.cap_levels.size(), options.group_size,
              options.hours_per_round);
  apps::PowerCappingStudy study(options);
  // A fabric flight needs a day of telemetry before it starts (its
  // guardrail baseline): simulate the Sunday, then start the rounds Monday.
  const sim::HourIndex monday = sim::kHoursPerWeek;
  if (Status s = engine.Run(monday - sim::kHoursPerDay, sim::kHoursPerDay, &store);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto result = study.Run(model, &cluster.value(), &engine, &store, monday);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%10s %8s %16s %16s %10s\n", "cap", "feature", "d_bytes/cpu",
              "d_bytes/sec", "watts");
  for (const auto& cell : result->cells) {
    std::printf("%9.0f%% %8s %15.1f%% %15.1f%% %10.0f\n",
                cell.capped ? -cell.cap_level * 100.0 : 0.0,
                cell.feature ? "on" : "off",
                cell.bytes_per_cpu_time_change * 100.0,
                cell.bytes_per_second_change * 100.0, cell.avg_power_watts);
  }

  std::printf("\nrecommended provisioning cut: %.0f%% below the original level\n",
              result->recommended_cap_level * 100.0);
  std::printf("provisioned power harvested: %.0f W per machine — at fleet scale "
              "this is megawatts that become new machines in the same "
              "datacenters\n",
              result->provisioned_watts_saved_per_machine);
  return 0;
}
