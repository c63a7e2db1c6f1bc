#ifndef KEA_CORE_FLIGHTING_H_
#define KEA_CORE_FLIGHTING_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/cluster.h"

namespace kea::core {

/// Configuration payload of a flight: only the set fields are changed on the
/// target machines; everything else is left untouched.
struct ConfigPatch {
  std::optional<int> max_containers;
  std::optional<double> power_cap_fraction;
  std::optional<bool> feature_enabled;
  std::optional<sim::ScId> software_config;

  bool empty() const {
    return !max_containers && !power_cap_fraction && !feature_enabled &&
           !software_config;
  }
};

/// Applies a patch to a machine set directly (shared by the experiment
/// fabric and the deployment module).
Status ApplyPatch(const ConfigPatch& patch, const std::vector<int>& machine_ids,
                  sim::Cluster* cluster);

/// ConfigPatch's field list for the state archive (FLIGHT_STARTED ledger
/// payloads): each field as a has-value flag, then the value or zero.
template <typename Ar>
void Persist(Ar& ar, ConfigPatch& patch) {
  ar(patch.max_containers, patch.power_cap_fraction, patch.feature_enabled,
     patch.software_config);
}

}  // namespace kea::core

#endif  // KEA_CORE_FLIGHTING_H_
