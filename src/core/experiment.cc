#include "core/experiment.h"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

namespace kea::core {

std::vector<std::vector<int>> DealArms(const sim::Cluster& cluster,
                                       std::vector<int> machine_ids, int arms) {
  const auto& machines = cluster.machines();
  std::sort(machine_ids.begin(), machine_ids.end(), [&](int a, int b) {
    const sim::Machine& x = machines[static_cast<size_t>(a)];
    const sim::Machine& y = machines[static_cast<size_t>(b)];
    return std::tie(x.rack, x.sc, x.id) < std::tie(y.rack, y.sc, y.id);
  });
  std::vector<std::vector<int>> dealt(static_cast<size_t>(arms));
  for (size_t i = 0; i < machine_ids.size(); ++i) {
    dealt[i % dealt.size()].push_back(machine_ids[i]);
  }
  return dealt;
}

StatusOr<ExperimentAssignment> IdealAssignment(const sim::Cluster& cluster,
                                               sim::SkuId sku, int max_racks,
                                               int min_per_arm) {
  if (max_racks <= 0) return Status::InvalidArgument("max_racks must be positive");
  if (min_per_arm <= 0) return Status::InvalidArgument("min_per_arm must be positive");

  // Machines of the SKU in its first `max_racks` racks (racks are
  // homogeneous in SKU).
  std::set<int> racks;
  std::vector<int> ids;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku != sku) continue;
    if (racks.count(m.rack) == 0) {
      if (static_cast<int>(racks.size()) == max_racks) continue;
      racks.insert(m.rack);
    }
    ids.push_back(m.id);
  }
  if (ids.empty()) {
    return Status::FailedPrecondition("no machines with the requested SKU");
  }
  std::vector<std::vector<int>> arms = DealArms(cluster, std::move(ids), 2);
  if (arms[1].size() < static_cast<size_t>(min_per_arm)) {
    return Status::FailedPrecondition(
        "not enough machines for the ideal experiment setting");
  }
  return ExperimentAssignment{std::move(arms[0]), std::move(arms[1])};
}

StatusOr<std::vector<std::vector<int>>> HybridGroups(const sim::Cluster& cluster,
                                                     sim::SkuId sku, int num_groups,
                                                     int group_size) {
  if (num_groups <= 0 || group_size <= 0) {
    return Status::InvalidArgument("groups and sizes must be positive");
  }
  std::vector<int> ids;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku == sku) ids.push_back(m.id);
  }
  size_t needed = static_cast<size_t>(num_groups) * static_cast<size_t>(group_size);
  if (ids.size() < needed) {
    return Status::FailedPrecondition(
        "not enough machines of the SKU for the hybrid setting: need " +
        std::to_string(needed) + ", have " + std::to_string(ids.size()));
  }
  std::vector<std::vector<int>> groups =
      DealArms(cluster, std::move(ids), num_groups);
  for (auto& group : groups) group.resize(static_cast<size_t>(group_size));
  return groups;
}

BalanceReport CheckBalance(const sim::Cluster& cluster,
                           const ExperimentAssignment& assignment) {
  BalanceReport report;
  report.control_size = assignment.control.size();
  report.treatment_size = assignment.treatment.size();

  std::map<int, int> rack_delta;
  for (int id : assignment.control) {
    rack_delta[cluster.machines()[static_cast<size_t>(id)].rack] += 1;
  }
  for (int id : assignment.treatment) {
    rack_delta[cluster.machines()[static_cast<size_t>(id)].rack] -= 1;
  }
  for (const auto& [rack, delta] : rack_delta) {
    report.max_rack_imbalance = std::max(report.max_rack_imbalance, std::abs(delta));
  }
  size_t size_gap = report.control_size > report.treatment_size
                        ? report.control_size - report.treatment_size
                        : report.treatment_size - report.control_size;
  report.balanced = size_gap <= report.control_size / 10 + 1 &&
                    report.max_rack_imbalance <= 1;
  return report;
}

}  // namespace kea::core
