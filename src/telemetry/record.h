#ifndef KEA_TELEMETRY_RECORD_H_
#define KEA_TELEMETRY_RECORD_H_

#include <string>
#include <vector>

#include "common/snapshot.h"
#include "sim/types.h"

namespace kea::telemetry {

/// One machine-hour observation — the atom of KEA's telemetry. Each point in
/// the scatter view of Figure 8 is one of these. Produced by the fluid
/// simulation engine (in production: by the data orchestration pipeline that
/// joins Cosmos sources).
struct MachineHourRecord {
  int machine_id = 0;
  sim::HourIndex hour = 0;
  int rack = 0;
  sim::SkuId sku = 0;
  sim::ScId sc = 0;

  /// Time-average number of simultaneously running containers.
  double avg_running_containers = 0.0;
  /// Time-average CPU utilization in [0, 1].
  double cpu_utilization = 0.0;
  /// Tasks finished during the hour.
  double tasks_finished = 0.0;
  /// Total data read in MB during the hour ("Total Data Read").
  double data_read_mb = 0.0;
  /// Mean task execution latency in seconds.
  double avg_task_latency_s = 0.0;
  /// Total CPU time consumed by tasks during the hour, in core-seconds.
  double cpu_time_core_s = 0.0;

  /// Low-priority queue state (Section 5.3 / Figure 12).
  double queued_containers = 0.0;
  double queue_latency_ms = 0.0;
  /// Containers that could not even queue (per-machine queue cap hit) and
  /// were rejected back to the scheduler.
  double rejected_containers = 0.0;

  /// Resource usage (Section 6.1 / Figure 13; network per Section 6.2).
  double cores_used = 0.0;
  double ssd_used_gb = 0.0;
  double ram_used_gb = 0.0;
  double network_used_mbps = 0.0;

  /// Electrical draw in watts.
  double power_watts = 0.0;

  sim::MachineGroupKey group() const { return sim::MachineGroupKey{sc, sku}; }

  /// Derived: bytes per second of task execution time (MB/s), a normalized
  /// throughput metric from Table 2 that is robust to load level.
  double BytesPerSecond() const;

  /// Derived: bytes per core-second of CPU time (MB/core-s), Table 2's
  /// "Bytes per CPU Time".
  double BytesPerCpuTime() const;
};

/// Per-task observation emitted by the discrete-event job engine; used for
/// the task-level validation analyses (Figure 5, Figure 6).
struct TaskRecord {
  int64_t job_id = 0;
  int stage = 0;
  int task_type = 0;  ///< Index into the workload's task-type list.
  int machine_id = 0;
  int rack = 0;
  sim::SkuId sku = 0;
  sim::ScId sc = 0;
  double start_time_s = 0.0;
  double duration_s = 0.0;
  bool on_critical_path = false;
};

/// Per-job observation from the discrete-event engine (Figure 11).
struct JobRecord {
  int64_t job_id = 0;
  int template_id = 0;
  double submit_time_s = 0.0;
  double runtime_s = 0.0;
};

/// CSV header + row serialization for MachineHourRecord dumps.
std::vector<std::string> MachineHourCsvHeader();
std::vector<std::string> MachineHourCsvRow(const MachineHourRecord& r);

/// The record's field list for the state archive (common/snapshot.h): the
/// telemetry segment, fault-injector queues and quarantine contents. Five
/// integer fields as 64-bit values, then fourteen doubles as raw IEEE-754
/// bits.
template <typename Ar>
void Persist(Ar& ar, MachineHourRecord& r) {
  ar(r.machine_id, r.hour, r.rack, r.sku, r.sc, r.avg_running_containers,
     r.cpu_utilization, r.tasks_finished, r.data_read_mb, r.avg_task_latency_s,
     r.cpu_time_core_s, r.queued_containers, r.queue_latency_ms,
     r.rejected_containers, r.cores_used, r.ssd_used_gb, r.ram_used_gb,
     r.network_used_mbps, r.power_watts);
}

/// Bytes every record encodes to.
inline constexpr size_t kMachineHourRecordBytes = 5 * 8 + 14 * 8;

}  // namespace kea::telemetry

namespace kea {
template <>
inline constexpr size_t kWireBytes<telemetry::MachineHourRecord> =
    telemetry::kMachineHourRecordBytes;
}  // namespace kea

#endif  // KEA_TELEMETRY_RECORD_H_
