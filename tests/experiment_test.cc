#include "core/experiment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace kea::core {
namespace {

sim::Cluster MakeCluster(int machines = 800) {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = machines;
  return std::move(sim::Cluster::Build(sim::SkuCatalog::Default(), spec)).value();
}

TEST(IdealAssignmentTest, AlternatesWithinRackScStrata) {
  sim::Cluster cluster = MakeCluster();
  auto assignment = IdealAssignment(cluster, 3, 4, 10);
  ASSERT_TRUE(assignment.ok()) << assignment.status();

  // Arms must be disjoint and same SKU.
  std::set<int> control(assignment->control.begin(), assignment->control.end());
  for (int id : assignment->treatment) {
    EXPECT_FALSE(control.count(id));
  }
  for (int id : assignment->control) {
    EXPECT_EQ(cluster.machines()[static_cast<size_t>(id)].sku, 3);
  }
  // Pairing is stratified: the i-th treatment machine sits in the same rack
  // and SC stratum as the i-th control machine (physically adjacent
  // same-configuration neighbors).
  ASSERT_LE(assignment->treatment.size(), assignment->control.size());
  for (size_t i = 0; i < assignment->treatment.size(); ++i) {
    const sim::Machine& c =
        cluster.machines()[static_cast<size_t>(assignment->control[i])];
    const sim::Machine& t =
        cluster.machines()[static_cast<size_t>(assignment->treatment[i])];
    EXPECT_EQ(c.rack, t.rack) << i;
    EXPECT_EQ(c.sc, t.sc) << i;
  }
  // Both arms carry both software configurations (no SC confound).
  auto sc_mix = [&](const std::vector<int>& arm) {
    std::set<sim::ScId> scs;
    for (int id : arm) scs.insert(cluster.machines()[static_cast<size_t>(id)].sc);
    return scs.size();
  };
  EXPECT_EQ(sc_mix(assignment->control), 2u);
  EXPECT_EQ(sc_mix(assignment->treatment), 2u);
}

TEST(IdealAssignmentTest, BalancedArms) {
  sim::Cluster cluster = MakeCluster();
  auto assignment = IdealAssignment(cluster, 3, 4, 10);
  ASSERT_TRUE(assignment.ok());
  BalanceReport report = CheckBalance(cluster, *assignment);
  EXPECT_TRUE(report.balanced);
  EXPECT_LE(report.max_rack_imbalance, 1);
  size_t diff = report.control_size > report.treatment_size
                    ? report.control_size - report.treatment_size
                    : report.treatment_size - report.control_size;
  EXPECT_LE(diff, 4u);
}

TEST(IdealAssignmentTest, RespectsMaxRacks) {
  sim::Cluster cluster = MakeCluster();
  auto small = IdealAssignment(cluster, 3, 1, 5);
  ASSERT_TRUE(small.ok());
  std::set<int> racks;
  for (int id : small->control) {
    racks.insert(cluster.machines()[static_cast<size_t>(id)].rack);
  }
  EXPECT_EQ(racks.size(), 1u);
}

TEST(IdealAssignmentTest, Errors) {
  sim::Cluster cluster = MakeCluster();
  EXPECT_EQ(IdealAssignment(cluster, 99, 4, 10).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(IdealAssignment(cluster, 3, 0, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(IdealAssignment(cluster, 3, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
  // Asking for more per arm than exists.
  EXPECT_EQ(IdealAssignment(cluster, 3, 1, 500).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DealArmsTest, BalancesEveryRackAndScStratum) {
  sim::Cluster cluster = MakeCluster();
  std::vector<int> ids;
  for (const sim::Machine& m : cluster.machines()) {
    if (m.sku == 4) ids.push_back(m.id);
  }
  // Any order in, the same deal out.
  std::vector<int> reversed(ids.rbegin(), ids.rend());
  auto arms = DealArms(cluster, ids, 3);
  ASSERT_EQ(arms, DealArms(cluster, reversed, 3));
  ASSERT_EQ(arms.size(), 3u);

  std::set<int> seen;
  std::map<std::pair<int, sim::ScId>, std::vector<int>> counts;
  for (size_t a = 0; a < arms.size(); ++a) {
    for (int id : arms[a]) {
      EXPECT_TRUE(seen.insert(id).second) << "machine dealt twice: " << id;
      const sim::Machine& m = cluster.machines()[static_cast<size_t>(id)];
      auto& per_arm = counts[{m.rack, m.sc}];
      per_arm.resize(arms.size());
      ++per_arm[a];
    }
  }
  EXPECT_EQ(seen.size(), ids.size());
  for (const auto& [stratum, per_arm] : counts) {
    auto [lo, hi] = std::minmax_element(per_arm.begin(), per_arm.end());
    EXPECT_LE(*hi - *lo, 1) << "rack " << stratum.first << " sc " << stratum.second;
  }
  // Arm sizes differ by at most one, so truncating every arm to the smallest
  // keeps a prefix of the deal.
  EXPECT_LE(arms[0].size() - arms[2].size(), 1u);
}

TEST(HybridGroupsTest, GroupsAreDisjointAndSized) {
  sim::Cluster cluster = MakeCluster(2000);
  auto groups = HybridGroups(cluster, 4, 4, 30);
  ASSERT_TRUE(groups.ok()) << groups.status();
  ASSERT_EQ(groups->size(), 4u);
  std::set<int> seen;
  for (const auto& group : *groups) {
    EXPECT_EQ(group.size(), 30u);
    for (int id : group) {
      EXPECT_TRUE(seen.insert(id).second) << "machine in two groups: " << id;
      EXPECT_EQ(cluster.machines()[static_cast<size_t>(id)].sku, 4);
    }
  }
}

TEST(HybridGroupsTest, GroupsSpreadAcrossRacks) {
  sim::Cluster cluster = MakeCluster(2000);
  auto groups = HybridGroups(cluster, 4, 4, 40);
  ASSERT_TRUE(groups.ok());
  // Round-robin dealing means each group touches many racks.
  for (const auto& group : *groups) {
    std::set<int> racks;
    for (int id : group) {
      racks.insert(cluster.machines()[static_cast<size_t>(id)].rack);
    }
    EXPECT_GE(racks.size(), 4u);
  }
}

TEST(HybridGroupsTest, Errors) {
  sim::Cluster cluster = MakeCluster(200);
  EXPECT_EQ(HybridGroups(cluster, 4, 0, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HybridGroups(cluster, 4, 4, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(HybridGroups(cluster, 4, 4, 100000).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckBalanceTest, FlagsImbalancedArms) {
  sim::Cluster cluster = MakeCluster();
  ExperimentAssignment lopsided;
  for (int i = 0; i < 100; ++i) lopsided.control.push_back(i);
  lopsided.treatment.push_back(200);
  BalanceReport report = CheckBalance(cluster, lopsided);
  EXPECT_FALSE(report.balanced);
}

}  // namespace
}  // namespace kea::core
