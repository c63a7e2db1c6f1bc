#ifndef KEA_SIM_TYPES_H_
#define KEA_SIM_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>

namespace kea::sim {

/// Index of a hardware generation (stock keeping unit) in the SkuCatalog.
using SkuId = int;

/// Index of a software configuration. The paper studies two: SC1 (local temp
/// store on HDD) and SC2 (local temp store on SSD).
using ScId = int;

/// Hours since the start of the simulation.
using HourIndex = int;

/// Seconds since the start of the simulation (used by the discrete-event
/// job engine).
using SimTime = double;

constexpr int kHoursPerDay = 24;
constexpr int kHoursPerWeek = 168;
constexpr double kSecondsPerHour = 3600.0;

/// Identifies a machine group: the SC-SKU combination `k` of Eq. (1)-(6).
/// All KEA models are fit per machine group.
struct MachineGroupKey {
  ScId sc = 0;
  SkuId sku = 0;

  bool operator==(const MachineGroupKey& other) const {
    return sc == other.sc && sku == other.sku;
  }
  bool operator<(const MachineGroupKey& other) const {
    return std::tie(sc, sku) < std::tie(other.sc, other.sku);
  }
};

/// The state archive's field list (common/snapshot.h).
template <typename Ar>
void Persist(Ar& ar, MachineGroupKey& key) {
  ar(key.sc, key.sku);
}

/// "SC<sc>-SKU<sku>" label for reports.
inline std::string GroupLabel(const MachineGroupKey& key) {
  return "SC" + std::to_string(key.sc + 1) + "-SKU" + std::to_string(key.sku);
}

}  // namespace kea::sim

template <>
struct std::hash<kea::sim::MachineGroupKey> {
  size_t operator()(const kea::sim::MachineGroupKey& key) const noexcept {
    return std::hash<int>()(key.sc) * 1000003u ^ std::hash<int>()(key.sku);
  }
};

#endif  // KEA_SIM_TYPES_H_
