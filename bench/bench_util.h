#ifndef KEA_BENCH_BENCH_UTIL_H_
#define KEA_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/fluid_engine.h"
#include "sim/job_sim.h"
#include "sim/perf_model.h"
#include "sim/workload.h"
#include "telemetry/store.h"

namespace kea::bench {

/// A ready-to-run simulated environment shared by the figure/table benches:
/// ground-truth model, default workload, cluster, fluid engine and an empty
/// telemetry store.
struct BenchEnv {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  std::unique_ptr<sim::FluidEngine> engine;
  telemetry::TelemetryStore store;

  /// Builds the environment; aborts on programming errors (specs are
  /// constants here).
  static BenchEnv Make(int machines = 2000, uint64_t seed = 42);

  /// Runs the fluid engine for [start, start+hours) into the store.
  void Run(sim::HourIndex start, int hours);

  /// Simulates the Sunday [144, 168): the day of telemetry a fabric flight
  /// needs as its guardrail baseline. Returns the Monday hour an experiment
  /// then starts at, so its days keep their weekdays.
  sim::HourIndex SimulateBaselineDay();
};

/// Prints the standard bench banner: which paper artifact this regenerates
/// and what shape to expect.
void PrintBanner(const std::string& artifact, const std::string& expectation);

/// The recording host and build as JSON object members, one per line at a
/// two-space indent, with no trailing comma: "nproc", "compiler",
/// "build_type" and "git_sha" (`git describe --always --dirty` of the source
/// tree when the build was configured, or "unknown" outside a checkout).
std::string HostJsonFields();

/// Fixed-width table printing.
void PrintRow(const std::vector<std::string>& cells, int width = 14);
std::string Fmt(double value, int precision = 3);
std::string Pct(double fraction, int precision = 1);

}  // namespace kea::bench

#endif  // KEA_BENCH_BENCH_UTIL_H_
