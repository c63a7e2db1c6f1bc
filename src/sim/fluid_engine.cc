#include "sim/fluid_engine.h"

#include <algorithm>
#include <cmath>

#include "common/snapshot.h"

namespace kea::sim {

FluidEngine::FluidEngine(const PerfModel* model, Cluster* cluster,
                         const WorkloadModel* workload, const Options& options)
    : model_(model),
      cluster_(cluster),
      workload_(workload),
      options_(options),
      rng_(options.seed),
      baseline_slots_(static_cast<double>(cluster->TotalContainerSlots())) {}

Status FluidEngine::Run(HourIndex start_hour, int hours,
                        telemetry::TelemetryStore* store) {
  if (store == nullptr) return Status::InvalidArgument("null telemetry store");
  if (hours <= 0) return Status::InvalidArgument("hours must be positive");
  for (int h = 0; h < hours; ++h) {
    SimulateHour(start_hour + h, store);
  }
  return Status::OK();
}

void FluidEngine::SimulateHour(HourIndex hour, telemetry::TelemetryStore* store) {
  const auto& machines = cluster_->machines();
  const size_t n = machines.size();
  offered_.assign(n, 0.0);
  assigned_.assign(n, 0.0);
  if (down_until_.size() != n) down_until_.assign(n, 0);

  // Failure injection: up machines may fail this hour and stay down for an
  // exponential repair time. Down machines contribute zero capacity and no
  // telemetry.
  if (options_.failure_rate_per_hour > 0.0) {
    for (size_t i = 0; i < n; ++i) {
      if (down_until_[i] > hour) continue;
      if (rng_.Bernoulli(options_.failure_rate_per_hour)) {
        double repair = rng_.Exponential(1.0 / options_.mean_repair_hours);
        down_until_[i] = hour + std::max(1, static_cast<int>(repair));
      }
    }
  }
  // Fleet-chaos health snapshot for the hour. With no injector attached (or
  // an empty profile) every machine is up at speed 1.0 and the engine's own
  // draws are untouched — the zero-fault path stays bit-identical.
  if (fleet_faults_ != nullptr) {
    fleet_faults_->BeginHour(hour);
    fleet_up_.assign(n, 1);
    fleet_speed_.assign(n, 1.0);
    for (size_t i = 0; i < n; ++i) {
      MachineHealth health = fleet_faults_->Health(i);
      fleet_up_[i] = health.up ? 1 : 0;
      fleet_speed_[i] = health.speed;
    }
  }
  auto fleet_up = [&](size_t i) {
    return fleet_faults_ == nullptr || fleet_up_[i] != 0;
  };
  auto slots_of = [&](size_t i) {
    return (down_until_[i] > hour || !fleet_up(i))
               ? 0.0
               : static_cast<double>(machines[i].max_containers);
  };

  double demand = workload_->DemandContainers(hour, baseline_slots_, &rng_);

  // Uniform random placement across container *slots* with imbalance noise:
  // a machine with twice the slots receives twice the expected containers
  // (every slot is an equally likely landing spot for the randomizing
  // scheduler). Shares are normalized to sum back to the demand.
  double total_slots_now = 0.0;
  for (size_t i = 0; i < n; ++i) total_slots_now += slots_of(i);
  if (total_slots_now <= 0.0) return;  // Entire cluster down.
  double offered_total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double share = demand * slots_of(i) / total_slots_now;
    offered_[i] = share * rng_.LogNormal(0.0, options_.placement_noise_sigma);
    offered_total += offered_[i];
  }
  if (offered_total > 0.0) {
    double scale = demand / offered_total;
    for (double& v : offered_) v *= scale;
  }

  // First assignment pass: cap at max_containers (0 for down machines).
  double overflow = 0.0;
  for (size_t i = 0; i < n; ++i) {
    assigned_[i] = std::min(offered_[i], slots_of(i));
    overflow += offered_[i] - assigned_[i];
  }

  // Work-conserving redistribution: spare slots absorb overflow.
  for (int round = 0; round < options_.redistribution_rounds && overflow > 1e-9;
       ++round) {
    double spare_total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      spare_total += slots_of(i) - assigned_[i];
    }
    if (spare_total <= 1e-9) break;
    double next_overflow = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double cap = slots_of(i);
      double spare = cap - assigned_[i];
      if (spare <= 0.0) continue;
      double granted = overflow * (spare / spare_total);
      double accepted = std::min(granted, spare);
      assigned_[i] += accepted;
      next_overflow += granted - accepted;
    }
    overflow = next_overflow;
  }

  // Whatever still cannot run queues as low-priority containers,
  // proportionally to each machine's slot count (placements were uniform),
  // capped by the per-machine queue limit (Section 5.3). Overflow that no
  // queue can hold is rejected back to the scheduler.
  double total_slots = total_slots_now;
  std::vector<double> queued(n, 0.0);
  std::vector<double> rejected(n, 0.0);
  if (overflow > 0.0 && total_slots > 0.0) {
    double spill = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double want = overflow * slots_of(i) / total_slots;
      double cap = slots_of(i) > 0.0
                       ? static_cast<double>(machines[i].max_queued_containers)
                       : 0.0;
      queued[i] = std::min(want, cap);
      spill += want - queued[i];
    }
    // One redistribution round into remaining queue capacity; what's left is
    // rejected, attributed to the machines whose queues are full.
    if (spill > 1e-9) {
      double spare_total = 0.0;
      for (size_t i = 0; i < n; ++i) {
        if (slots_of(i) <= 0.0) continue;
        spare_total +=
            static_cast<double>(machines[i].max_queued_containers) - queued[i];
      }
      if (spare_total > 1e-9) {
        double absorbed = std::min(spill, spare_total);
        for (size_t i = 0; i < n; ++i) {
          if (slots_of(i) <= 0.0) continue;
          double spare =
              static_cast<double>(machines[i].max_queued_containers) - queued[i];
          queued[i] += absorbed * (spare / spare_total);
        }
        spill -= absorbed;
      }
      if (spill > 1e-9) {
        double full_total = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (queued[i] >=
              static_cast<double>(machines[i].max_queued_containers) - 1e-9) {
            full_total += static_cast<double>(machines[i].max_containers);
          }
        }
        for (size_t i = 0; i < n; ++i) {
          if (full_total > 0.0 &&
              queued[i] >=
                  static_cast<double>(machines[i].max_queued_containers) - 1e-9) {
            rejected[i] =
                spill * static_cast<double>(machines[i].max_containers) / full_total;
          }
        }
      }
    }
  }

  for (size_t i = 0; i < n; ++i) {
    if (down_until_[i] > hour) continue;  // No telemetry from down machines.
    if (!fleet_up(i)) continue;           // Fleet-chaos downtime: same gap.
    const Machine& m = machines[i];
    MachineGroupKey group = m.group();

    double containers = assigned_[i];

    double util = model_->Utilization(m.sku, containers);
    util += rng_.Gaussian(0.0, options_.utilization_noise);
    util = std::clamp(util, 0.0, 1.0);

    telemetry::MachineHourRecord r;
    r.machine_id = m.id;
    r.hour = hour;
    r.rack = m.rack;
    r.sku = m.sku;
    r.sc = m.sc;
    r.avg_running_containers = containers;
    r.cpu_utilization = util;

    if (containers > 1e-9) {
      double latency = model_->TaskLatencySeconds(group, util, containers,
                                                  m.power_cap_fraction,
                                                  m.feature_enabled);
      // Slow-node degradation stretches task time; division by exactly 1.0
      // keeps the healthy path bit-identical.
      if (fleet_faults_ != nullptr) latency /= fleet_speed_[i];
      latency *= rng_.LogNormal(0.0, options_.latency_noise_sigma);
      double tasks = model_->TasksPerHour(containers, latency);
      double data = model_->DataReadMbPerHour(tasks);
      data *= rng_.LogNormal(0.0, options_.data_noise_sigma);

      r.avg_task_latency_s = latency;
      r.tasks_finished = tasks;
      r.data_read_mb = data;
      r.queue_latency_ms =
          queued[i] * latency / std::max(containers, 1.0) * 1000.0;
    }
    r.queued_containers = queued[i];
    r.rejected_containers = rejected[i];
    r.cpu_time_core_s = util *
                        static_cast<double>(model_->catalog().spec(m.sku).cores) *
                        kSecondsPerHour;

    double cores_used = model_->CoresUsed(m.sku, util);
    r.cores_used = cores_used;
    const PerfModel::Params& p = model_->params();
    double beta_s = rng_.Gaussian(p.ssd_gb_per_core_mean, p.ssd_gb_per_core_stddev);
    double beta_r = rng_.Gaussian(p.ram_gb_per_core_mean, p.ram_gb_per_core_stddev);
    double beta_n = rng_.Gaussian(p.nic_mbps_per_core_mean, p.nic_mbps_per_core_stddev);
    beta_s = std::max(beta_s, 0.0);
    beta_r = std::max(beta_r, 0.0);
    beta_n = std::max(beta_n, 0.0);
    r.ssd_used_gb = model_->SsdUsedGb(cores_used, beta_s);
    r.ram_used_gb = model_->RamUsedGb(cores_used, beta_r);
    r.network_used_mbps = model_->NetworkUsedMbps(cores_used, beta_n);

    r.power_watts = model_->PowerWatts(m.sku, util, m.power_cap_fraction,
                                       m.feature_enabled);
    store->Append(r);
  }
}

template <typename Ar>
void Persist(Ar& ar, FluidEngine& e) {
  ar(e.rng_, e.baseline_slots_, e.down_until_);
}

std::string FluidEngine::SerializeState() const { return Encode(*this); }

Status FluidEngine::RestoreState(const std::string& blob) {
  return Decode(blob, this);
}

}  // namespace kea::sim
