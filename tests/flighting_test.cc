#include "core/flighting.h"

#include <gtest/gtest.h>

#include "common/snapshot.h"

namespace kea::core {
namespace {

sim::Cluster MakeCluster(int machines = 200) {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = machines;
  return std::move(sim::Cluster::Build(sim::SkuCatalog::Default(), spec)).value();
}

TEST(ConfigPatchTest, EmptyDetection) {
  ConfigPatch patch;
  EXPECT_TRUE(patch.empty());
  patch.feature_enabled = true;
  EXPECT_FALSE(patch.empty());
}

TEST(ApplyPatchTest, AppliesAllFields) {
  sim::Cluster cluster = MakeCluster();
  ConfigPatch patch;
  patch.max_containers = 25;
  patch.power_cap_fraction = 0.15;
  patch.feature_enabled = true;
  patch.software_config = 1;
  ASSERT_TRUE(ApplyPatch(patch, {0, 1}, &cluster).ok());
  const sim::Machine& m = cluster.machines()[0];
  EXPECT_EQ(m.max_containers, 25);
  EXPECT_DOUBLE_EQ(m.power_cap_fraction, 0.15);
  EXPECT_TRUE(m.feature_enabled);
  EXPECT_EQ(m.sc, 1);
  // Machine 2 untouched.
  EXPECT_NE(cluster.machines()[2].max_containers, 25);
}

TEST(ApplyPatchTest, Validation) {
  sim::Cluster cluster = MakeCluster();
  ConfigPatch patch;
  patch.max_containers = 0;
  EXPECT_EQ(ApplyPatch(patch, {0}, &cluster).code(), StatusCode::kInvalidArgument);

  ConfigPatch good;
  good.feature_enabled = true;
  EXPECT_EQ(ApplyPatch(good, {99999}, &cluster).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ApplyPatch(good, {0}, nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(ConfigPatchTest, CodecRoundTrips) {
  ConfigPatch patch;
  patch.max_containers = 24;
  patch.power_cap_fraction = 0.85;
  patch.feature_enabled = true;
  patch.software_config = 1;
  ConfigPatch back;
  ASSERT_TRUE(Decode(Encode(patch), &back).ok());
  EXPECT_EQ(back.max_containers, patch.max_containers);
  EXPECT_EQ(back.power_cap_fraction, patch.power_cap_fraction);
  EXPECT_EQ(back.feature_enabled, patch.feature_enabled);
  EXPECT_EQ(back.software_config, patch.software_config);

  // Unset fields stay unset through the codec.
  ConfigPatch sparse;
  sparse.feature_enabled = false;
  ConfigPatch sparse_back;
  ASSERT_TRUE(
      Decode(Encode(sparse), &sparse_back).ok());
  EXPECT_FALSE(sparse_back.max_containers.has_value());
  EXPECT_FALSE(sparse_back.power_cap_fraction.has_value());
  EXPECT_FALSE(sparse_back.software_config.has_value());
  ASSERT_TRUE(sparse_back.feature_enabled.has_value());
  EXPECT_FALSE(*sparse_back.feature_enabled);

  EXPECT_FALSE(Decode("torn", &back).ok());
}

}  // namespace
}  // namespace kea::core
