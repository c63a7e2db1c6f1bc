#include "core/validation.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/fluid_engine.h"
#include "telemetry/perf_monitor.h"

namespace kea::core {
namespace {

struct ValidationFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  telemetry::TelemetryStore store;
  std::unique_ptr<sim::FluidEngine> engine;

  explicit ValidationFixture(int machines = 400) {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = machines;
    cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
    engine = std::make_unique<sim::FluidEngine>(&model, &cluster, &workload,
                                                sim::FluidEngine::Options());
    (void)engine->Run(0, sim::kHoursPerWeek, &store);
  }
};

TEST(ModelValidatorTest, FreshModelsValidateOnNextWeek) {
  ValidationFixture fx;
  auto whatif = WhatIfEngine::Fit(fx.store, telemetry::HourRangeFilter(0, 168),
                                  WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());
  // Simulate another week without any configuration change.
  ASSERT_TRUE(fx.engine->Run(168, 168, &fx.store).ok());

  ModelValidator validator;
  auto report = validator.Validate(*whatif, fx.store,
                                   telemetry::HourRangeFilter(168, 336));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->models_valid);
  EXPECT_TRUE(report->unmodeled_groups.empty());
  EXPECT_LT(report->max_latency_error, 0.15);
  EXPECT_EQ(report->groups.size(), 12u);
}

TEST(ModelValidatorTest, DetectsDriftAfterHardwareShift) {
  // Fit on one PerfModel, then observe telemetry from a *different* hardware
  // reality (e.g., a firmware regression slowing every machine by 40%).
  ValidationFixture fx;
  auto whatif = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());

  sim::PerfModel::Params degraded;
  degraded.task_cpu_work *= 1.4;
  auto slow_model = sim::PerfModel::Create(sim::SkuCatalog::Default(),
                                           sim::DefaultSoftwareConfigs(), degraded);
  ASSERT_TRUE(slow_model.ok());
  sim::FluidEngine slow_engine(&slow_model.value(), &fx.cluster, &fx.workload,
                               sim::FluidEngine::Options());
  telemetry::TelemetryStore drift_store;
  ASSERT_TRUE(slow_engine.Run(500, 72, &drift_store).ok());

  ModelValidator validator;
  auto report = validator.Validate(*whatif, drift_store, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->models_valid);
  EXPECT_GT(report->max_latency_error, 0.15);
}

TEST(ModelValidatorTest, FlagsUnmodeledGroups) {
  ValidationFixture fx;
  // Fit only on SC1 telemetry; validation over both SCs must flag SC2.
  auto whatif = WhatIfEngine::Fit(
      fx.store, [](const telemetry::MachineHourRecord& r) { return r.sc == 0; },
      WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());

  ModelValidator validator;
  auto report = validator.Validate(*whatif, fx.store, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->models_valid);
  EXPECT_EQ(report->unmodeled_groups.size(), 6u);
  for (const auto& key : report->unmodeled_groups) {
    EXPECT_EQ(key.sc, 1);
  }
}

TEST(ModelValidatorTest, EmptyWindowFails) {
  ValidationFixture fx(100);
  auto whatif = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());
  ModelValidator validator;
  auto report = validator.Validate(*whatif, fx.store,
                                   telemetry::HourRangeFilter(9000, 9010));
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ModelValidatorTest, ToleranceOptionRespected) {
  ValidationFixture fx;
  auto whatif = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());

  ModelValidator::Options strict;
  strict.tolerance = 1e-9;  // Nothing passes a zero tolerance.
  ModelValidator validator(strict);
  auto report = validator.Validate(*whatif, fx.store, nullptr);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->models_valid);
}

TEST(ModelValidatorTest, NanBusyRecordIsRefused) {
  // A record appended past the ingestion screens: a NaN has no rank, so the
  // window's median utilization cannot be taken and validation says so
  // instead of comparing the models with an arbitrary element.
  ValidationFixture fx(60);
  auto whatif = WhatIfEngine::Fit(fx.store, nullptr, WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok()) << whatif.status();
  telemetry::MachineHourRecord record;
  fx.store.ForEach(nullptr, [&](const telemetry::MachineHourRecord& r) {
    if (r.tasks_finished > 0.0) record = r;
  });
  ASSERT_GT(record.tasks_finished, 0.0);
  record.hour = sim::kHoursPerWeek;
  record.cpu_utilization = std::numeric_limits<double>::quiet_NaN();
  fx.store.Append(record);
  ModelValidator validator;
  auto report = validator.Validate(*whatif, fx.store, nullptr);
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument) << report.status();
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

void ExpectSameReport(const ValidationReport& got, const ValidationReport& want) {
  EXPECT_EQ(got.models_valid, want.models_valid);
  EXPECT_EQ(Bits(got.max_latency_error), Bits(want.max_latency_error));
  EXPECT_EQ(Bits(got.max_utilization_error), Bits(want.max_utilization_error));
  EXPECT_EQ(got.unmodeled_groups, want.unmodeled_groups);
  ASSERT_EQ(got.groups.size(), want.groups.size());
  for (size_t i = 0; i < got.groups.size(); ++i) {
    const GroupValidation& a = got.groups[i];
    const GroupValidation& b = want.groups[i];
    EXPECT_EQ(a.group, b.group);
    EXPECT_EQ(a.observations, b.observations);
    EXPECT_EQ(a.within_tolerance, b.within_tolerance);
    for (auto field : {&GroupValidation::observed_containers,
                       &GroupValidation::predicted_utilization,
                       &GroupValidation::observed_utilization,
                       &GroupValidation::predicted_latency_s,
                       &GroupValidation::observed_latency_s,
                       &GroupValidation::utilization_error,
                       &GroupValidation::latency_error}) {
      EXPECT_EQ(Bits(a.*field), Bits(b.*field)) << sim::GroupLabel(a.group);
    }
  }
}

// Window reads start at the store's hour index. On a store whose telemetry
// arrived out of hour order, the index-backed reads of the validator and the
// What-if fit must equal a full scan, bit for bit.
TEST(ModelValidatorTest, LateArrivalsMatchFullScanReference) {
  ValidationFixture fx;
  ASSERT_TRUE(fx.engine->Run(168, 168, &fx.store).ok());
  // Re-append the two weeks with hours [150, 200) arriving after the rest.
  telemetry::TelemetryStore late;
  std::vector<telemetry::MachineHourRecord> deferred;
  for (const auto& r : fx.store.records()) {
    if (r.hour >= 150 && r.hour < 200) {
      deferred.push_back(r);
    } else {
      late.Append(r);
    }
  }
  late.AppendAll(deferred);

  auto whatif = WhatIfEngine::Fit(fx.store, telemetry::HourRangeFilter(0, 168),
                                  WhatIfEngine::Options());
  ASSERT_TRUE(whatif.ok());
  ModelValidator validator;
  for (auto [begin, end] : {std::pair{168, 336}, std::pair{180, 240},
                            std::pair{140, 170}, std::pair{320, 400}}) {
    SCOPED_TRACE("window [" + std::to_string(begin) + ", " + std::to_string(end) + ")");
    // A bare predicate carries no hour bounds, so the store scans it all.
    const telemetry::RecordFilter full_scan =
        [begin, end](const telemetry::MachineHourRecord& r) {
          return r.hour >= begin && r.hour < end;
        };
    const telemetry::RecordFilter window = telemetry::HourRangeFilter(begin, end);

    auto fast = validator.Validate(*whatif, late, window);
    auto full = validator.Validate(*whatif, late, full_scan);
    ASSERT_TRUE(fast.ok()) << fast.status();
    ASSERT_TRUE(full.ok()) << full.status();
    ExpectSameReport(*fast, *full);

    auto fast_fit = WhatIfEngine::Fit(late, window, WhatIfEngine::Options());
    auto full_fit = WhatIfEngine::Fit(late, full_scan, WhatIfEngine::Options());
    ASSERT_TRUE(fast_fit.ok());
    ASSERT_TRUE(full_fit.ok());
    EXPECT_EQ(fast_fit->ModelHash(), full_fit->ModelHash());
  }
}

}  // namespace
}  // namespace kea::core
