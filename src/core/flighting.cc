#include "core/flighting.h"

#include "common/snapshot.h"

namespace kea::core {

std::string EncodeConfigPatch(const ConfigPatch& patch) {
  StateWriter w;
  w.PutBool(patch.max_containers.has_value());
  w.PutInt(patch.max_containers.value_or(0));
  w.PutBool(patch.power_cap_fraction.has_value());
  w.PutDouble(patch.power_cap_fraction.value_or(0.0));
  w.PutBool(patch.feature_enabled.has_value());
  w.PutBool(patch.feature_enabled.value_or(false));
  w.PutBool(patch.software_config.has_value());
  w.PutInt(patch.software_config.value_or(0));
  return w.Release();
}

Status DecodeConfigPatch(const std::string& blob, ConfigPatch* patch) {
  StateReader r(blob);
  bool has = false;
  int i = 0;
  double d = 0.0;
  bool b = false;
  *patch = ConfigPatch{};
  KEA_RETURN_IF_ERROR(r.GetBool(&has));
  KEA_RETURN_IF_ERROR(r.GetInt(&i));
  if (has) patch->max_containers = i;
  KEA_RETURN_IF_ERROR(r.GetBool(&has));
  KEA_RETURN_IF_ERROR(r.GetDouble(&d));
  if (has) patch->power_cap_fraction = d;
  KEA_RETURN_IF_ERROR(r.GetBool(&has));
  KEA_RETURN_IF_ERROR(r.GetBool(&b));
  if (has) patch->feature_enabled = b;
  KEA_RETURN_IF_ERROR(r.GetBool(&has));
  KEA_RETURN_IF_ERROR(r.GetInt(&i));
  if (has) patch->software_config = i;
  return Status::OK();
}

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
