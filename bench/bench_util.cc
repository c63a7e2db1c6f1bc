#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace kea::bench {

BenchEnv BenchEnv::Make(int machines, uint64_t seed) {
  BenchEnv env;
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = machines;
  auto cluster = sim::Cluster::Build(env.model.catalog(), spec);
  if (!cluster.ok()) {
    std::fprintf(stderr, "fatal: %s\n", cluster.status().ToString().c_str());
    std::abort();
  }
  env.cluster = std::move(cluster).value();
  sim::FluidEngine::Options options;
  options.seed = seed;
  env.engine = std::make_unique<sim::FluidEngine>(&env.model, &env.cluster,
                                                  &env.workload, options);
  return env;
}

void BenchEnv::Run(sim::HourIndex start, int hours) {
  Status status = engine->Run(start, hours, &store);
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
    std::abort();
  }
}

sim::HourIndex BenchEnv::SimulateBaselineDay() {
  Run(sim::kHoursPerWeek - sim::kHoursPerDay, sim::kHoursPerDay);
  return sim::kHoursPerWeek;
}

std::string HostJsonFields() {
  return "  \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ",\n  \"compiler\": \"" KEA_BENCH_COMPILER "\",\n"
         "  \"build_type\": \"" KEA_BENCH_BUILD_TYPE "\",\n"
         "  \"git_sha\": \"" KEA_BENCH_GIT_SHA "\"";
}

void PrintBanner(const std::string& artifact, const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("KEA reproduction: %s\n", artifact.c_str());
  std::printf("Expected shape:   %s\n", expectation.c_str());
  std::printf("==============================================================\n");
}

void PrintRow(const std::vector<std::string>& cells, int width) {
  for (const auto& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

std::string Fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

std::string Pct(double fraction, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%+.*f%%", precision, fraction * 100.0);
  return buffer;
}

}  // namespace kea::bench
