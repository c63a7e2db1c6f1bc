#include "sim/fluid_sweep.h"

#include <utility>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kea::sim {

namespace {

// Deterministic: sweep fan-out totals, independent of thread count.
obs::Counter* SweepRunsCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("sweep.runs");
  return c;
}
obs::Counter* SweepCandidatesCounter() {
  static obs::Counter* c = obs::Registry::Get().GetCounter("sweep.candidates");
  return c;
}
obs::Counter* SweepMachineHoursCounter() {
  static obs::Counter* c =
      obs::Registry::Get().GetCounter("sweep.machine_hours");
  return c;
}

}  // namespace

SweepSummary SummarizeTelemetry(const std::string& label,
                                const telemetry::TelemetryStore& store) {
  SweepSummary s;
  s.label = label;
  double util = 0.0, containers = 0.0, latency_weighted = 0.0, power = 0.0;
  for (const auto& r : store.records()) {
    ++s.machine_hours;
    util += r.cpu_utilization;
    containers += r.avg_running_containers;
    latency_weighted += r.avg_task_latency_s * r.tasks_finished;
    s.total_tasks += r.tasks_finished;
    s.total_queued += r.queued_containers;
    s.total_rejected += r.rejected_containers;
    power += r.power_watts;
  }
  if (s.machine_hours > 0) {
    double n = static_cast<double>(s.machine_hours);
    s.mean_utilization = util / n;
    s.mean_running_containers = containers / n;
    s.mean_power_watts = power / n;
  }
  if (s.total_tasks > 0.0) s.mean_task_latency_s = latency_weighted / s.total_tasks;
  return s;
}

StatusOr<std::vector<telemetry::TelemetryStore>> RunConfigSweepTelemetry(
    const PerfModel* model, const Cluster& base, const WorkloadModel* workload,
    const std::vector<SweepCandidate>& candidates, const SweepOptions& options) {
  if (model == nullptr) return Status::InvalidArgument("null perf model");
  if (workload == nullptr) return Status::InvalidArgument("null workload model");
  if (candidates.empty()) return Status::InvalidArgument("empty candidate sweep");
  if (options.hours <= 0) return Status::InvalidArgument("hours must be positive");

  KEA_TRACE_SPAN("sweep.run",
                 {{"candidates", std::to_string(candidates.size())},
                  {"hours", std::to_string(options.hours)}});
  SweepRunsCounter()->Increment();
  SweepCandidatesCounter()->Increment(candidates.size());

  // Substream parent: candidate i simulates with seed Split(i), so its draw
  // sequence depends only on (options.engine.seed, i) — never on which
  // thread picks it up.
  Rng substream_base(options.engine.seed);

  std::vector<telemetry::TelemetryStore> stores(candidates.size());
  std::vector<Status> failures(candidates.size(), Status::OK());
  common::ThreadPool::Run(options.num_threads, candidates.size(), [&](size_t i) {
    KEA_TRACE_SPAN("sweep.candidate", {{"label", candidates[i].label},
                                       {"index", std::to_string(i)}});
    Cluster cluster = base;
    if (candidates[i].edit) {
      Status edited = candidates[i].edit(&cluster);
      if (!edited.ok()) {
        failures[i] = edited;
        return;
      }
    }
    FluidEngine::Options engine_options = options.engine;
    engine_options.seed = substream_base.Split(i).seed();
    FluidEngine engine(model, &cluster, workload, engine_options);
    failures[i] = engine.Run(options.start_hour, options.hours, &stores[i]);
  });
  for (const Status& s : failures) KEA_RETURN_IF_ERROR(s);
  // Single-threaded tally keeps the increment order deterministic.
  uint64_t machine_hours = 0;
  for (const auto& store : stores) machine_hours += store.size();
  SweepMachineHoursCounter()->Increment(machine_hours);
  return stores;
}

StatusOr<std::vector<SweepSummary>> RunConfigSweep(
    const PerfModel* model, const Cluster& base, const WorkloadModel* workload,
    const std::vector<SweepCandidate>& candidates, const SweepOptions& options) {
  KEA_ASSIGN_OR_RETURN(
      std::vector<telemetry::TelemetryStore> stores,
      RunConfigSweepTelemetry(model, base, workload, candidates, options));
  std::vector<SweepSummary> summaries;
  summaries.reserve(stores.size());
  for (size_t i = 0; i < stores.size(); ++i) {
    summaries.push_back(SummarizeTelemetry(candidates[i].label, stores[i]));
  }
  return summaries;
}

}  // namespace kea::sim
