// Measures what the experiment fabric costs on top of the simulation it
// drives: the wall-clock of a multi-flight fabric round versus simulating the
// same horizon with nothing in the air (admission, guardrail evaluation,
// effect estimation, and config patching are the difference), plus how many
// concurrent rack-exclusive flights the fleet can sustain when the queue is
// saturated and the blast-radius budget is wide open. Writes
// BENCH_experiment_fabric.json for the CI experiment-fabric job.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/session.h"
#include "bench/bench_util.h"
#include "core/experiment_fabric.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMachines = 240;
constexpr int kMachinesPerRack = 10;
constexpr int kPreludeHours = 48;
constexpr int kWindowHours = 6;
constexpr uint64_t kSeed = 7;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::unique_ptr<kea::apps::KeaSession> MakeWorld() {
  using kea::apps::KeaSession;
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = kSeed;
  config.cluster = kea::sim::ClusterSpec::Default();
  config.cluster.machines_per_rack = kMachinesPerRack;
  auto session_or = KeaSession::Create(config);
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    std::exit(1);
  }
  auto session = std::move(session_or).value();
  if (!session->Simulate(kPreludeHours).ok()) std::exit(1);
  return session;
}

kea::core::FlightRequest SmallFlight(const std::string& name,
                                     kea::sim::SkuId sku, int per_arm,
                                     int windows) {
  kea::core::FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.arms.resize(2);
  req.arms[1].feature_enabled = true;
  req.machines_per_arm = per_arm;
  req.window_hours = kWindowHours;
  req.num_windows = windows;
  // Never trips: the bench measures scheduler cost, not guardrail outcomes.
  req.guardrails.max_latency_ratio = 100.0;
  req.guardrails.max_queue_p99_ratio = 100.0;
  req.guardrails.queue_p99_floor_ms = 1e12;
  req.guardrails.max_utilization = 1.0;
  return req;
}

/// One rack-exclusive flight per whole rack of every SKU: the densest queue
/// the rack-partitioning rules can admit at once.
std::vector<kea::core::FlightRequest> SaturatingQueue(
    const kea::apps::KeaSession& session) {
  std::map<kea::sim::SkuId, int> sku_counts;
  for (const kea::sim::Machine& m : session.cluster().machines()) {
    ++sku_counts[m.sku];
  }
  std::vector<kea::core::FlightRequest> requests;
  for (const auto& [sku, count] : sku_counts) {
    int whole_racks = count / kMachinesPerRack;
    for (int i = 0; i < whole_racks; ++i) {
      requests.push_back(SmallFlight(
          "sat-sku" + std::to_string(sku) + "-" + std::to_string(i), sku,
          kMachinesPerRack / 2, /*windows=*/1));
    }
  }
  return requests;
}

}  // namespace

int main() {
  using namespace kea;
  using apps::KeaSession;
  bench::PrintBanner(
      "Experiment fabric overhead - multi-flight round vs bare simulation",
      "scheduler+stats cost small vs the simulation it drives; "
      "concurrency bounded by whole racks / budget");

  // --- Overhead: a 4-flight, 4-window fabric round vs simulating 24h bare.
  std::vector<core::FlightRequest> round_queue = {
      SmallFlight("ov-sku2", 2, 5, 4), SmallFlight("ov-sku3", 3, 5, 4),
      SmallFlight("ov-sku4", 4, 5, 4), SmallFlight("ov-sku5", 5, 5, 4)};

  MakeWorld();  // Warm-up: page in binaries and allocators.
  auto bare = MakeWorld();
  auto bare_start = Clock::now();
  if (!bare->Simulate(4 * kWindowHours).ok()) std::exit(1);
  double simulate_ms = MsSince(bare_start);

  auto fabric_world = MakeWorld();
  KeaSession::FabricRoundOptions options;
  options.fabric.max_flighted_fraction = 0.5;
  auto fabric_start = Clock::now();
  auto round = fabric_world->RunExperimentFabric(round_queue, options);
  double fabric_ms = MsSince(fabric_start);
  if (!round.ok()) {
    std::fprintf(stderr, "%s\n", round.status().ToString().c_str());
    return 1;
  }
  if (round->admitted != round_queue.size() || round->trips != 0) {
    std::fprintf(stderr, "overhead round did not admit cleanly\n");
    return 1;
  }
  double overhead_pct = 100.0 * (fabric_ms - simulate_ms) / simulate_ms;
  double per_flight_ms =
      (fabric_ms - simulate_ms) / static_cast<double>(round_queue.size());

  // --- Saturation: widest admissible wave of rack-exclusive flights.
  auto sat_world = MakeWorld();
  std::vector<core::FlightRequest> sat_queue = SaturatingQueue(*sat_world);
  KeaSession::FabricRoundOptions sat_options;
  sat_options.fabric.max_flighted_fraction = 1.0;
  auto sat_start = Clock::now();
  auto sat = sat_world->RunExperimentFabric(sat_queue, sat_options);
  double sat_ms = MsSince(sat_start);
  if (!sat.ok()) {
    std::fprintf(stderr, "%s\n", sat.status().ToString().c_str());
    return 1;
  }

  bench::PrintRow({"path", "ms", "vs bare"}, 20);
  bench::PrintRow({"simulate 24h", bench::Fmt(simulate_ms, 2), "-"}, 20);
  bench::PrintRow({"fabric round", bench::Fmt(fabric_ms, 2),
                   bench::Pct(overhead_pct / 100.0, 2)},
                  20);
  std::printf(
      "\nsaturation: %zu queued -> %zu admitted, max %zu concurrent, "
      "peak %zu machines flighted (%.2f ms)\n",
      sat_queue.size(), static_cast<size_t>(sat->admitted),
      static_cast<size_t>(sat->max_concurrent),
      static_cast<size_t>(sat->peak_flighted_machines), sat_ms);

  FILE* out = std::fopen("BENCH_experiment_fabric.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_experiment_fabric.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"machines\": %d,\n"
               "  \"round_flights\": %zu,\n"
               "  \"simulate_only_ms\": %.3f,\n"
               "  \"fabric_round_ms\": %.3f,\n"
               "  \"fabric_overhead_pct\": %.2f,\n"
               "  \"fabric_overhead_per_flight_ms\": %.3f,\n"
               "  \"saturation_queued\": %zu,\n"
               "  \"saturation_admitted\": %zu,\n"
               "  \"max_concurrent_flights\": %zu,\n"
               "  \"peak_flighted_machines\": %zu,\n"
               "  \"saturation_ms\": %.3f\n"
               "}\n",
               kMachines, round_queue.size(), simulate_ms, fabric_ms,
               overhead_pct, per_flight_ms, sat_queue.size(),
               static_cast<size_t>(sat->admitted),
               static_cast<size_t>(sat->max_concurrent),
               static_cast<size_t>(sat->peak_flighted_machines), sat_ms);
  std::fclose(out);
  std::printf("wrote BENCH_experiment_fabric.json\n");
  return 0;
}
