// Tests for the difference-in-differences estimator and the new third
// resource (network) in the SKU designer, plus the What-if Engine's
// cross-validated auto model selection.

#include <gtest/gtest.h>

#include "apps/sku_designer.h"
#include "common/random.h"
#include "core/treatment.h"
#include "core/whatif.h"
#include "sim/fluid_engine.h"

namespace kea {
namespace {

TEST(DifferenceInDifferencesTest, IsolatesEffectFromSharedDrift) {
  Rng rng(1);
  const int n = 300;
  std::vector<double> cb(n), ca(n), tb(n), ta(n);
  // Shared drift +10 between periods; treatment adds +5 on top.
  for (int i = 0; i < n; ++i) {
    double base_c = rng.Gaussian(100, 5);
    double base_t = rng.Gaussian(100, 5);
    cb[static_cast<size_t>(i)] = base_c;
    ca[static_cast<size_t>(i)] = base_c + 10.0 + rng.Gaussian(0, 2);
    tb[static_cast<size_t>(i)] = base_t;
    ta[static_cast<size_t>(i)] = base_t + 10.0 + 5.0 + rng.Gaussian(0, 2);
  }
  auto did = core::EstimateDifferenceInDifferences("metric", cb, ca, tb, ta);
  ASSERT_TRUE(did.ok()) << did.status();
  EXPECT_NEAR(did->control_change, 10.0, 0.5);
  EXPECT_NEAR(did->treatment_change, 15.0, 0.5);
  EXPECT_NEAR(did->effect, 5.0, 0.7);
  EXPECT_NEAR(did->percent_effect, 0.05, 0.01);
  EXPECT_TRUE(did->significant);
  EXPECT_GT(did->t_value, 5.0);
}

TEST(DifferenceInDifferencesTest, NullEffectUnderSharedDriftOnly) {
  Rng rng(2);
  const int n = 200;
  std::vector<double> cb(n), ca(n), tb(n), ta(n);
  for (int i = 0; i < n; ++i) {
    cb[static_cast<size_t>(i)] = rng.Gaussian(50, 3);
    ca[static_cast<size_t>(i)] = cb[static_cast<size_t>(i)] + 8.0 + rng.Gaussian(0, 2);
    tb[static_cast<size_t>(i)] = rng.Gaussian(50, 3);
    ta[static_cast<size_t>(i)] = tb[static_cast<size_t>(i)] + 8.0 + rng.Gaussian(0, 2);
  }
  auto did = core::EstimateDifferenceInDifferences("metric", cb, ca, tb, ta);
  ASSERT_TRUE(did.ok());
  EXPECT_NEAR(did->effect, 0.0, 0.7);
  EXPECT_FALSE(did->significant);
}

TEST(DifferenceInDifferencesTest, NaiveBeforeAfterWouldOverstate) {
  // The scenario DiD exists for: a naive after-vs-before on the treated
  // group attributes the shared drift to the treatment.
  Rng rng(3);
  const int n = 300;
  std::vector<double> cb(n), ca(n), tb(n), ta(n);
  for (int i = 0; i < n; ++i) {
    cb[static_cast<size_t>(i)] = rng.Gaussian(100, 4);
    ca[static_cast<size_t>(i)] = cb[static_cast<size_t>(i)] + 20.0 + rng.Gaussian(0, 2);
    tb[static_cast<size_t>(i)] = rng.Gaussian(100, 4);
    ta[static_cast<size_t>(i)] = tb[static_cast<size_t>(i)] + 22.0 + rng.Gaussian(0, 2);
  }
  auto naive = core::EstimateTreatmentEffect("naive", tb, ta);
  auto did = core::EstimateDifferenceInDifferences("did", cb, ca, tb, ta);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(did.ok());
  EXPECT_GT(naive->percent_change, 0.15);      // ~22% attributed naively.
  EXPECT_NEAR(did->percent_effect, 0.02, 0.01);  // True isolated effect ~2%.
}

TEST(DifferenceInDifferencesTest, Validation) {
  std::vector<double> two = {1.0, 2.0}, three = {1.0, 2.0, 3.0};
  EXPECT_FALSE(
      core::EstimateDifferenceInDifferences("m", two, three, two, two).ok());
  std::vector<double> one = {1.0};
  EXPECT_FALSE(core::EstimateDifferenceInDifferences("m", one, one, two, two).ok());
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(core::EstimateDifferenceInDifferences("m", two, two, zeros, zeros)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

class ThreeResourceDesignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::PerfModel model = sim::PerfModel::CreateDefault();
    sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = 300;
    auto cluster = sim::Cluster::Build(model.catalog(), spec);
    ASSERT_TRUE(cluster.ok());
    sim::FluidEngine engine(&model, &cluster.value(), &workload,
                            sim::FluidEngine::Options());
    ASSERT_TRUE(engine.Run(0, 72, &store_).ok());
  }
  telemetry::TelemetryStore store_;
};

TEST_F(ThreeResourceDesignTest, RecoversNetworkSlope) {
  apps::SkuDesigner::Options options;
  options.ssd_candidates_gb = {1200.0};
  options.ram_candidates_gb = {600.0};
  options.nic_candidates_mbps = {4000.0, 8000.0};
  options.mc_iterations = 200;
  apps::SkuDesigner designer(options);
  Rng rng(4);
  auto result = designer.Design(store_, nullptr, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  sim::PerfModel::Params truth;
  EXPECT_NEAR(result->n.coefficients()[0], truth.nic_mbps_per_core_mean, 8.0);
  EXPECT_EQ(result->surface.size(), 2u);
}

TEST_F(ThreeResourceDesignTest, UndersizedNicStrands) {
  apps::SkuDesigner::Options options;
  options.ssd_candidates_gb = {1600.0};
  options.ram_candidates_gb = {800.0};
  // 128 cores * ~45 Mbps/core + 150 ~ 5900 Mbps needed.
  options.nic_candidates_mbps = {2000.0, 10000.0};
  options.mc_iterations = 300;
  apps::SkuDesigner designer(options);
  Rng rng(5);
  auto result = designer.Design(store_, nullptr, &rng);
  ASSERT_TRUE(result.ok());
  const auto& small_nic = result->surface[0];
  const auto& big_nic = result->surface[1];
  EXPECT_GT(small_nic.p_out_of_nic, 0.9);
  EXPECT_LT(big_nic.p_out_of_nic, 0.1);
  EXPECT_GT(small_nic.expected_cost, big_nic.expected_cost);
  EXPECT_EQ(result->best_index, 1u);
}

TEST_F(ThreeResourceDesignTest, TwoResourceModeUnchanged) {
  // Without NIC candidates the surface shape is (ssd x ram) and no NIC
  // stranding is ever reported.
  apps::SkuDesigner::Options options;
  options.ssd_candidates_gb = {800.0, 1200.0};
  options.ram_candidates_gb = {400.0, 600.0};
  options.mc_iterations = 200;
  apps::SkuDesigner designer(options);
  Rng rng(6);
  auto result = designer.Design(store_, nullptr, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->surface.size(), 4u);
  for (const auto& point : result->surface) {
    EXPECT_DOUBLE_EQ(point.nic_mbps, 0.0);
    EXPECT_DOUBLE_EQ(point.p_out_of_nic, 0.0);
  }
}

}  // namespace
}  // namespace kea
