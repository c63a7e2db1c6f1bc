#include "core/flighting.h"

namespace kea::core {

Status ApplyPatch(const ConfigPatch& patch, const std::vector<int>& machine_ids,
                  sim::Cluster* cluster) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  auto& machines = cluster->mutable_machines();
  for (int id : machine_ids) {
    if (id < 0 || static_cast<size_t>(id) >= machines.size()) {
      return Status::OutOfRange("machine id " + std::to_string(id));
    }
  }
  if (patch.max_containers) {
    if (*patch.max_containers <= 0) {
      return Status::InvalidArgument("max_containers must be positive");
    }
    for (int id : machine_ids) {
      machines[static_cast<size_t>(id)].max_containers = *patch.max_containers;
    }
  }
  if (patch.power_cap_fraction) {
    KEA_RETURN_IF_ERROR(cluster->SetPowerCap(machine_ids, *patch.power_cap_fraction));
  }
  if (patch.feature_enabled) {
    KEA_RETURN_IF_ERROR(cluster->SetFeature(machine_ids, *patch.feature_enabled));
  }
  if (patch.software_config) {
    KEA_RETURN_IF_ERROR(cluster->SetSoftwareConfig(machine_ids, *patch.software_config));
  }
  return Status::OK();
}

}  // namespace kea::core
