#ifndef KEA_CORE_EXPERIMENT_H_
#define KEA_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "sim/cluster.h"

namespace kea::core {

/// The one arm-split rule of every concurrent experiment: Section 7's ideal
/// setting ("every other machine in the same rack"), generalised from 2
/// arms to k. Machines are taken rack by rack, SC stratum by stratum within
/// a rack and in id order within a stratum, and dealt to arms 0..k-1
/// round-robin; the deal carries on across strata and racks. So within every
/// rack each arm holds the same count of each SC, +-1 — machines alternate SC
/// within a rack, and an id-order deal would hand each arm a single SC — and
/// the first k*n machines dealt give every arm exactly n: a caller that needs
/// n machines per arm truncates each arm to n. Ids must be valid machines of
/// `cluster`; `arms` must be positive.
std::vector<std::vector<int>> DealArms(const sim::Cluster& cluster,
                                       std::vector<int> machine_ids, int arms);

/// Assignment of machines to the arms of an experiment.
struct ExperimentAssignment {
  std::vector<int> control;
  std::vector<int> treatment;
};

/// The *ideal* experiment setting (Section 7): DealArms over the machines of
/// `sku` in up to `max_racks` racks, so control and treatment interleave
/// within the same racks and SC strata and both arms receive statistically
/// identical workloads. Returns FailedPrecondition if fewer than
/// `min_per_arm` machines land in each arm.
StatusOr<ExperimentAssignment> IdealAssignment(const sim::Cluster& cluster,
                                               sim::SkuId sku, int max_racks,
                                               int min_per_arm);

/// The *hybrid* setting: different machine groups get different
/// configurations. DealArms splits the machines of the given SKU into
/// `num_groups` groups, each truncated to exactly `group_size`, so the groups
/// share racks and SC mix. Used by the power-capping study (groups A-D).
/// Returns FailedPrecondition when there are not enough machines.
StatusOr<std::vector<std::vector<int>>> HybridGroups(const sim::Cluster& cluster,
                                                     sim::SkuId sku, int num_groups,
                                                     int group_size);

/// Balance diagnostics for an assignment: both arms should have nearly equal
/// size and matching rack coverage.
struct BalanceReport {
  size_t control_size = 0;
  size_t treatment_size = 0;
  /// Max over racks of | #control - #treatment | within the rack.
  int max_rack_imbalance = 0;
  bool balanced = false;
};

BalanceReport CheckBalance(const sim::Cluster& cluster,
                           const ExperimentAssignment& assignment);

}  // namespace kea::core

#endif  // KEA_CORE_EXPERIMENT_H_
