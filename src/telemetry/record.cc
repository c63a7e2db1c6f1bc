#include "telemetry/record.h"

#include <cstdio>

namespace kea::telemetry {

double MachineHourRecord::BytesPerSecond() const {
  double total_exec_s = tasks_finished * avg_task_latency_s;
  if (total_exec_s <= 0.0) return 0.0;
  return data_read_mb / total_exec_s;
}

double MachineHourRecord::BytesPerCpuTime() const {
  if (cpu_time_core_s <= 0.0) return 0.0;
  return data_read_mb / cpu_time_core_s;
}

std::vector<std::string> MachineHourCsvHeader() {
  return {"machine_id", "hour", "rack", "sku", "sc",
          "avg_running_containers", "cpu_utilization", "tasks_finished",
          "data_read_mb", "avg_task_latency_s", "cpu_time_core_s",
          "queued_containers", "queue_latency_ms", "rejected_containers", "cores_used",
          "ssd_used_gb", "ram_used_gb", "network_used_mbps", "power_watts"};
}

std::vector<std::string> MachineHourCsvRow(const MachineHourRecord& r) {
  // %.17g round-trips every finite double exactly through strtod, so a store
  // dumped with ToCsv and read back with FromCsv is bit-identical to the
  // original. Checkpoints do not print: they use the record's Persist (record.h).
  auto d = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  return {std::to_string(r.machine_id), std::to_string(r.hour),
          std::to_string(r.rack), std::to_string(r.sku), std::to_string(r.sc),
          d(r.avg_running_containers), d(r.cpu_utilization), d(r.tasks_finished),
          d(r.data_read_mb), d(r.avg_task_latency_s), d(r.cpu_time_core_s),
          d(r.queued_containers), d(r.queue_latency_ms), d(r.rejected_containers), d(r.cores_used),
          d(r.ssd_used_gb), d(r.ram_used_gb), d(r.network_used_mbps),
          d(r.power_watts)};
}

}  // namespace kea::telemetry
