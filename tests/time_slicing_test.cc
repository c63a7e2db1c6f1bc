// The time-slicing experiment setting (Section 7) as experiment-fabric
// flights: one pinned machine set runs every arm in turn, window w running
// arm w mod k, with the configuration switched at each window boundary.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "core/experiment_fabric.h"
#include "sim/fluid_engine.h"

namespace kea::core {
namespace {

constexpr int kBaselineHours = 24;

/// A world with one baseline day simulated, so every flight's guardrails
/// have a baseline window.
struct SlicingFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  std::unique_ptr<sim::FluidEngine> engine;
  telemetry::TelemetryStore store;
  sim::HourIndex now = 0;
  /// Called before every simulated stretch (one window per call for a
  /// single flight).
  std::function<void()> on_advance;

  explicit SlicingFixture(int machines = 600) {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = machines;
    cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
    engine = std::make_unique<sim::FluidEngine>(&model, &cluster, &workload,
                                                sim::FluidEngine::Options());
    EXPECT_TRUE(Advance(kBaselineHours).ok());
  }

  Status Advance(int hours) {
    if (on_advance) on_advance();
    KEA_RETURN_IF_ERROR(engine->Run(now, hours, &store));
    now += hours;
    return Status::OK();
  }

  std::vector<int> MachinesOfSku(sim::SkuId sku, size_t count) const {
    std::vector<int> out;
    for (const sim::Machine& m : cluster.machines()) {
      if (m.sku == sku && out.size() < count) out.push_back(m.id);
    }
    return out;
  }

  /// Arms {unpatched, patch} time-sliced over `machines`.
  static FlightRequest Sliced(sim::SkuId sku, const std::vector<int>& machines,
                              const ConfigPatch& patch, int window_hours,
                              int windows) {
    FlightRequest req;
    req.name = "sliced";
    req.sku = sku;
    req.arms = {ConfigPatch(), patch};
    req.pinned_arms = {machines, machines};
    req.window_hours = window_hours;
    req.num_windows = windows;
    req.guardrails.max_latency_ratio = 100.0;
    req.guardrails.max_queue_p99_ratio = 100.0;
    req.guardrails.queue_p99_floor_ms = 1e12;
    req.guardrails.max_utilization = 1.0;
    return req;
  }

  StatusOr<ExperimentFabric::FlightConclusion> Fly(const FlightRequest& req) {
    KEA_ASSIGN_OR_RETURN(
        ExperimentFabric::Report report,
        ExperimentFabric(ExperimentFabric::Options())
            .Run({req}, &cluster, &store, now,
                 [this](int hours) { return Advance(hours); }, nullptr));
    return report.flights[0];
  }
};

ConfigPatch Feature() {
  ConfigPatch patch;
  patch.feature_enabled = true;
  return patch;
}

TEST(TimeSlicedFlightTest, DetectsFeatureEffect) {
  SlicingFixture fx;
  auto machines = fx.MachinesOfSku(4, 100);
  ASSERT_EQ(machines.size(), 100u);

  auto flight = fx.Fly(SlicingFixture::Sliced(4, machines, Feature(), 5,
                                              sim::kHoursPerWeek / 5));
  ASSERT_TRUE(flight.ok()) << flight.status();
  ASSERT_TRUE(flight->effect_ok);
  // The Feature cuts task latency; the treatment windows must show it.
  const auto& treatment = flight->arms[1];
  EXPECT_LT(treatment.task_latency.percent_change, -0.01);
  EXPECT_TRUE(treatment.task_latency.significant);
  EXPECT_GT(treatment.data_read.percent_change, 0.01);
}

TEST(TimeSlicedFlightTest, ConfigSwitchesAndIsRestoredBetweenWindows) {
  SlicingFixture fx(200);
  ConfigPatch cap;
  cap.power_cap_fraction = 0.25;
  auto machines = fx.MachinesOfSku(4, 20);
  // The cap each window ran under, read as the window starts.
  std::vector<double> caps;
  fx.on_advance = [&] {
    caps.push_back(fx.cluster.machines()[static_cast<size_t>(machines[3])]
                       .power_cap_fraction);
  };

  auto flight = fx.Fly(SlicingFixture::Sliced(4, machines, cap, 5, 8));
  ASSERT_TRUE(flight.ok()) << flight.status();
  EXPECT_FALSE(flight->tripped);
  EXPECT_EQ(flight->machines_restored, machines.size());
  ASSERT_EQ(caps.size(), 8u);
  for (size_t w = 0; w < caps.size(); ++w) {
    EXPECT_DOUBLE_EQ(caps[w], w % 2 == 1 ? 0.25 : 0.0) << "window " << w;
  }
  // After the experiment every machine is back to its original config.
  for (const sim::Machine& m : fx.cluster.machines()) {
    EXPECT_DOUBLE_EQ(m.power_cap_fraction, 0.0) << m.id;
  }
}

TEST(TimeSlicedFlightTest, HoursAreSplitPerArm) {
  SlicingFixture fx(200);
  auto machines = fx.MachinesOfSku(3, 20);

  auto even = fx.Fly(SlicingFixture::Sliced(3, machines, Feature(), 5, 10));
  ASSERT_TRUE(even.ok()) << even.status();
  EXPECT_EQ(even->end_hour - even->start_hour, 50);
  EXPECT_EQ(even->arms[0].hours, 25);
  EXPECT_EQ(even->arms[1].hours, 25);

  // An odd window count gives arm 0, which runs first, the extra window.
  auto odd = fx.Fly(SlicingFixture::Sliced(3, machines, Feature(), 5, 7));
  ASSERT_TRUE(odd.ok()) << odd.status();
  EXPECT_EQ(odd->arms[0].hours, 20);
  EXPECT_EQ(odd->arms[1].hours, 15);
}

TEST(TimeSlicedFlightTest, NullEffectWhenPatchMatchesFleet) {
  SlicingFixture fx;
  // The fleet runs with the Feature off; a "treatment" that turns it off
  // changes nothing, so the estimate must be statistically null.
  ConfigPatch off;
  off.feature_enabled = false;
  auto machines = fx.MachinesOfSku(4, 100);

  auto flight = fx.Fly(
      SlicingFixture::Sliced(4, machines, off, 5, sim::kHoursPerWeek / 5));
  ASSERT_TRUE(flight.ok()) << flight.status();
  ASSERT_TRUE(flight->effect_ok);
  EXPECT_NEAR(flight->arms[1].task_latency.percent_change, 0.0, 0.02);
  EXPECT_NEAR(flight->arms[1].data_read.percent_change, 0.0, 0.02);
}

TEST(TimeSlicedFlightTest, FewerWindowsThanArmsAreRefused) {
  SlicingFixture fx(200);
  auto machines = fx.MachinesOfSku(3, 20);

  // A single window has no alternation: refused, not silently degenerate.
  EXPECT_EQ(fx.Fly(SlicingFixture::Sliced(3, machines, Feature(), 5, 1))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  FlightRequest three = SlicingFixture::Sliced(3, machines, Feature(), 5, 2);
  three.arms.push_back(Feature());
  three.pinned_arms.push_back(machines);
  EXPECT_EQ(fx.Fly(three).status().code(), StatusCode::kInvalidArgument);

  // Two windows is the smallest legal schedule: one window per arm.
  auto minimal = fx.Fly(SlicingFixture::Sliced(3, machines, Feature(), 5, 2));
  ASSERT_TRUE(minimal.ok()) << minimal.status();
  EXPECT_EQ(minimal->arms[0].hours, 5);
  EXPECT_EQ(minimal->arms[1].hours, 5);
}

}  // namespace
}  // namespace kea::core
