// Experimental tuning (Section 7.1 of the paper): choosing between software
// configurations SC1 (local temp store on HDD) and SC2 (local temp store on
// SSD) with the *ideal* A/B setting — every other machine in the same racks,
// so both arms receive statistically identical workloads — over five
// consecutive workdays.
//
// Build & run:  ./build/examples/software_config_ab

#include <cstdio>

#include "apps/sc_selector.h"
#include "sim/fluid_engine.h"

int main() {
  using namespace kea;

  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = 3000;
  auto cluster = sim::Cluster::Build(model.catalog(), spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
    return 1;
  }
  sim::FluidEngine engine(&model, &cluster.value(), &workload,
                          sim::FluidEngine::Options());
  telemetry::TelemetryStore store;

  apps::ScSelector::Options options;
  options.sku = 3;          // Gen3.1 racks.
  options.max_racks = 35;   // ~700 machines per arm.
  options.min_machines_per_arm = 300;
  options.workdays = 5;

  std::printf("enrolling every other machine in %d racks, flighting SC2 on the "
              "treatment arm for %d workdays...\n",
              options.max_racks, options.workdays);
  apps::ScSelector selector(options);
  // A fabric flight needs a day of telemetry before it starts (its
  // guardrail baseline): simulate the Sunday, then start the workdays Monday.
  const sim::HourIndex monday = sim::kHoursPerWeek;
  if (Status s = engine.Run(monday - sim::kHoursPerDay, sim::kHoursPerDay, &store);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto result = selector.Run(&cluster.value(), &engine, &store, monday);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::printf("\narms: %zu control (SC1) vs %zu treatment (SC2); rack imbalance "
              "<= %d machine(s)\n",
              result->assignment.control.size(),
              result->assignment.treatment.size(),
              result->balance.max_rack_imbalance);

  std::printf("\n%-36s %12s %12s %10s %8s\n", "metric", "SC1", "SC2", "change",
              "t");
  auto row = [](const core::TreatmentEffect& e) {
    std::printf("%-36s %12.1f %12.1f %9.1f%% %8.1f\n", e.metric.c_str(),
                e.control_mean, e.treatment_mean, e.percent_change * 100.0,
                e.t_value);
  };
  row(result->data_read);
  row(result->task_latency);

  std::printf("\nverdict: %s\n",
              result->sc2_dominates
                  ? "SC2 dominates — move the local temp store to SSD"
                  : "no significant winner; keep SC1");
  return 0;
}
