// The headline robustness proof for the experiment fabric: a multi-flight
// composition runs under fleet chaos (crashes, rack outages, degraded nodes)
// and every surviving flight reaches the same statistical conclusion —
// treatment-effect sign, and a confidence interval that covers the chaos-free
// ground truth — as the same flight run solo on a healthy fleet. A flight
// whose guardrails trip is rolled back at the window boundary and never
// deploys further; the blast-radius budget holds throughout.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/power_capping.h"
#include "apps/session.h"
#include "common/snapshot.h"
#include "core/experiment.h"
#include "core/experiment_fabric.h"

namespace kea::apps {
namespace {

using core::ExperimentFabric;
using core::FlightRequest;

constexpr int kMachines = 240;
constexpr int kMachinesPerRack = 10;
constexpr int kPreludeHours = 48;
constexpr int kPerArm = 8;   // Two whole racks per flight (8+8 of 20).
constexpr int kWindows = 4;  // 24h horizon per flight.

KeaSession::Config ChaosWorldConfig() {
  KeaSession::Config config;
  config.machines = kMachines;
  config.seed = 20260808;
  config.cluster = sim::ClusterSpec::Default();
  config.cluster.machines_per_rack = kMachinesPerRack;
  // A strong, unambiguous treatment effect so its *sign* is recoverable even
  // when chaos steals machine-hours from both arms.
  config.perf_params.feature_speed_boost = 1.25;
  return config;
}

/// Gentle but real chaos: a few percent of machine-hours lost to crashes,
/// occasional rack blips, some degraded nodes. No permanent loss — arms must
/// keep their identity so solo ground truths use the same machines.
KeaSession::FleetChaosConfig GentleChaos() {
  KeaSession::FleetChaosConfig chaos;
  chaos.profile.crash_rate_per_hour = 0.003;
  chaos.profile.mean_repair_hours = 4.0;
  chaos.profile.rack_outage_rate_per_hour = 0.0005;
  chaos.profile.mean_rack_outage_hours = 3.0;
  chaos.profile.degrade_rate_per_hour = 0.002;
  chaos.profile.degrade_severity = 0.3;
  chaos.profile.recovery_per_hour = 0.05;
  chaos.profile.permanent_loss_rate_per_hour = 0.0;
  chaos.seed = 99;
  return chaos;
}

core::GuardrailThresholds Generous() {
  core::GuardrailThresholds t;
  t.max_latency_ratio = 100.0;
  t.max_queue_p99_ratio = 100.0;
  t.queue_p99_floor_ms = 1e12;
  t.max_utilization = 1.0;
  return t;
}

/// The first `count` machines of a SKU — whole racks, since Cluster::Build
/// allocates racks to SKUs contiguously and `count` is a rack multiple.
std::vector<int> SkuPool(const KeaSession& session, sim::SkuId sku, int skip,
                         int count) {
  std::vector<int> pool;
  for (const sim::Machine& m : session.cluster().machines()) {
    if (m.sku != sku) continue;
    if (skip > 0) {
      --skip;
      continue;
    }
    pool.push_back(m.id);
    if (static_cast<int>(pool.size()) == count) break;
  }
  EXPECT_EQ(pool.size(), static_cast<size_t>(count));
  return pool;
}

/// A feature flight pinned to `pool`, dealt into two arms of kPerArm by the
/// one split rule.
FlightRequest PinnedFeatureFlight(const std::string& name, sim::SkuId sku,
                                  const KeaSession& session,
                                  std::vector<int> pool) {
  FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.arms.resize(2);
  req.arms[1].feature_enabled = true;
  req.machines_per_arm = kPerArm;
  req.window_hours = 6;
  req.num_windows = kWindows;
  req.pinned_arms = core::DealArms(session.cluster(), std::move(pool), 2);
  for (auto& arm : req.pinned_arms) arm.resize(kPerArm);
  req.guardrails = Generous();
  return req;
}

/// The composition: three healthy feature flights on disjoint SKUs plus one
/// doomed flight whose guardrails no treatment can satisfy.
std::vector<FlightRequest> CompositionRequests(const KeaSession& session) {
  std::vector<FlightRequest> requests = {
      PinnedFeatureFlight("flight-a", 3, session,
                          SkuPool(session, 3, 0, 2 * kMachinesPerRack)),
      PinnedFeatureFlight("flight-b", 4, session,
                          SkuPool(session, 4, 0, 2 * kMachinesPerRack)),
      PinnedFeatureFlight("flight-c", 5, session,
                          SkuPool(session, 5, 0, 2 * kMachinesPerRack)),
  };
  FlightRequest doomed = PinnedFeatureFlight(
      "flight-doomed", 4, session,
      SkuPool(session, 4, 2 * kMachinesPerRack, 2 * kMachinesPerRack));
  doomed.guardrails.max_latency_ratio = 0.01;  // Latency must drop 99%: never.
  requests.push_back(doomed);
  return requests;
}

KeaSession::FabricRoundOptions RoundOptions(int threads = 1) {
  KeaSession::FabricRoundOptions options;
  options.fabric.max_flighted_fraction = 0.30;  // Budget: 72 of 240.
  options.fabric.num_threads = threads;
  return options;
}

std::unique_ptr<KeaSession> MakeWorld(bool with_chaos) {
  auto session = std::move(KeaSession::Create(ChaosWorldConfig())).value();
  if (with_chaos) {
    EXPECT_TRUE(session->EnableFleetChaos(GentleChaos()).ok());
  }
  EXPECT_TRUE(session->Simulate(kPreludeHours).ok());
  return session;
}

const ExperimentFabric::FlightConclusion& FlightByName(
    const ExperimentFabric::Report& report, const std::string& name) {
  for (const auto& c : report.flights) {
    if (c.name == name) return c;
  }
  ADD_FAILURE() << "no flight named " << name;
  static ExperimentFabric::FlightConclusion missing;
  return missing;
}

std::string ClusterSignature(const KeaSession& session) {
  StateWriter w;
  for (const sim::Machine& m : session.cluster().machines()) {
    w.PutInt(m.id);
    w.PutInt(m.sc);
    w.PutInt(m.max_containers);
    w.PutInt(m.max_queued_containers);
    w.PutDouble(m.power_cap_fraction);
    w.PutBool(m.feature_enabled);
  }
  return w.Release();
}

std::string ReportSignature(const ExperimentFabric::Report& report) {
  StateWriter w;
  w.PutU64(report.admitted);
  w.PutU64(report.rejected);
  w.PutU64(report.trips);
  w.PutU64(report.max_concurrent);
  w.PutU64(report.peak_flighted_machines);
  w.PutI64(report.end_hour);
  w.PutU64(report.flights.size());
  for (const auto& c : report.flights) {
    w.PutString(Encode(c));
  }
  return w.Release();
}

int Sign(double x) { return x > 0.0 ? 1 : (x < 0.0 ? -1 : 0); }

/// Chaos-free solo ground truth for one flight: a fresh healthy world, the
/// same pinned pool (hence bit-identical arms), nothing else in the air.
ExperimentFabric::FlightConclusion SoloGroundTruth(const FlightRequest& req) {
  auto session = MakeWorld(/*with_chaos=*/false);
  auto report = session->RunExperimentFabric({req}, RoundOptions());
  EXPECT_TRUE(report.ok()) << report.status();
  return report->flights[0];
}

TEST(FabricChaosCompositionTest, SurvivingFlightsMatchSoloGroundTruth) {
  auto session = MakeWorld(/*with_chaos=*/true);
  std::string before = ClusterSignature(*session);
  std::vector<FlightRequest> requests = CompositionRequests(*session);
  auto report = session->RunExperimentFabric(requests, RoundOptions());
  ASSERT_TRUE(report.ok()) << report.status();

  // Admission: all four flights fit disjoint racks inside the budget.
  EXPECT_EQ(report->admitted, 4u);
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_LE(report->peak_flighted_machines, 72u);
  EXPECT_EQ(report->max_concurrent, 4u);

  // The doomed flight tripped at its first boundary and never deployed
  // further — the tentpole's "no flight deploys through a tripped guardrail".
  const auto& doomed = FlightByName(*report, "flight-doomed");
  ASSERT_TRUE(doomed.tripped);
  EXPECT_EQ(doomed.tripped_window, 0);
  EXPECT_FALSE(doomed.trip_eval.pass());
  EXPECT_EQ(doomed.end_hour, doomed.start_hour + 6);
  EXPECT_EQ(doomed.machines_restored, static_cast<size_t>(kPerArm));
  EXPECT_EQ(report->trips, 1u);

  // Every flight ended or rolled back: the fleet is exactly as it was.
  EXPECT_EQ(ClusterSignature(*session), before);

  // Each healthy flight survived chaos and reaches the same statistical
  // conclusion as its solo, chaos-free ground truth.
  int survivors = 0;
  for (const char* name : {"flight-a", "flight-b", "flight-c"}) {
    SCOPED_TRACE(name);
    const auto& chaos = FlightByName(*report, name);
    ASSERT_TRUE(chaos.admitted);
    EXPECT_FALSE(chaos.tripped);
    if (!chaos.effect_ok) continue;  // Chaos may blank a window entirely.
    ++survivors;

    const FlightRequest* req = nullptr;
    for (const auto& r : requests) {
      if (r.name == name) req = &r;
    }
    ASSERT_NE(req, nullptr);
    ExperimentFabric::FlightConclusion solo = SoloGroundTruth(*req);
    ASSERT_TRUE(solo.effect_ok);
    // Identical arms: the conclusion differs only through chaos.
    EXPECT_EQ(solo.arms[1].machines, chaos.arms[1].machines);
    EXPECT_EQ(solo.arms[0].machines, chaos.arms[0].machines);

    // Same verdict: the treatment still reads more data, still runs faster.
    EXPECT_GT(solo.arms[1].data_read.percent_change, 0.0);
    EXPECT_EQ(Sign(chaos.arms[1].data_read.percent_change),
              Sign(solo.arms[1].data_read.percent_change));
    EXPECT_EQ(Sign(chaos.arms[1].task_latency.percent_change),
              Sign(solo.arms[1].task_latency.percent_change));

    // The chaos CI must cover the chaos-free effect (small absolute slack:
    // chaos shifts both arms, the CI half-width only captures variance).
    const double slack = 0.1 * std::abs(solo.arms[1].data_read.percent_change);
    EXPECT_LE(chaos.arms[1].data_read_ci_low - slack,
              solo.arms[1].data_read.percent_change);
    EXPECT_GE(chaos.arms[1].data_read_ci_high + slack,
              solo.arms[1].data_read.percent_change);
  }
  EXPECT_GE(survivors, 2);

  // Down-hour accounting is sane: what the flights charged to their arms is
  // bounded by what the injector actually took from the whole fleet.
  std::vector<int> all_ids;
  for (const sim::Machine& m : session->cluster().machines()) {
    all_ids.push_back(m.id);
  }
  ASSERT_NE(session->fleet_faults(), nullptr);
  uint64_t fleet_down = session->fleet_faults()->DownHours(all_ids);
  uint64_t charged = 0;
  for (const auto& c : report->flights) {
    charged += c.down_hours;
  }
  EXPECT_LE(charged, fleet_down);
  EXPECT_GT(fleet_down, 0u) << "chaos profile too gentle to matter";
}

TEST(FabricChaosCompositionTest, TrippedStudyRollsBackOnlyItsOwnArms) {
  // A power-capping study's round rides beside the healthy flights under
  // chaos, with guardrails it cannot meet: it trips at its first boundary,
  // journals the only rollback of the run, and the flights beside it run
  // their whole horizon.
  const std::string dir = testing::TempDir() + "/fabric_chaos_study";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto session = std::move(KeaSession::Create(ChaosWorldConfig())).value();
  ASSERT_TRUE(session->EnableDurability(dir).ok());
  ASSERT_TRUE(session->EnableFleetChaos(GentleChaos()).ok());
  ASSERT_TRUE(session->Simulate(kPreludeHours).ok());
  const std::string before = ClusterSignature(*session);

  std::vector<FlightRequest> requests = CompositionRequests(*session);
  requests.pop_back();  // The doomed flight: here the study is what trips.
  PowerCappingStudy::Options options;
  options.sku = 2;
  options.group_size = 3;
  options.cap_levels = {0.20};
  options.hours_per_round = 6;
  const PowerCappingStudy study(options);
  auto study_queue = study.Requests(session->cluster());
  ASSERT_TRUE(study_queue.ok()) << study_queue.status();
  ASSERT_EQ(study_queue->size(), 1u);
  (*study_queue)[0].guardrails.max_latency_ratio = 0.01;  // Never met.
  requests.push_back((*study_queue)[0]);

  auto report = session->RunExperimentFabric(requests, RoundOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 4u);
  EXPECT_EQ(report->trips, 1u);

  const auto& tripped = report->flights[3];
  ASSERT_TRUE(tripped.tripped);
  EXPECT_EQ(tripped.tripped_window, 0);
  EXPECT_EQ(tripped.end_hour, tripped.start_hour + options.hours_per_round);
  EXPECT_EQ(tripped.machines_restored, 3u * 3u);  // Arms B, C and D.
  for (size_t i = 0; i < 3; ++i) {
    const auto& flight = report->flights[i];
    SCOPED_TRACE(flight.name);
    EXPECT_FALSE(flight.tripped);
    EXPECT_EQ(flight.end_hour, flight.start_hour + 6 * kWindows);
    EXPECT_FALSE(session->ledger()->Has("fab0/f" + std::to_string(i) + "/rollback"));
  }
  EXPECT_TRUE(session->ledger()->Has("fab0/f3/rollback"));
  EXPECT_EQ(ClusterSignature(*session), before);

  // The study reads the trip as its failure, with the guardrail evidence.
  ExperimentFabric::Report study_report;
  study_report.flights = {tripped};
  auto read = study.Read(session->perf_model(), session->store(), study_report);
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(read.status().message().find(tripped.trip_eval.Describe()),
            std::string::npos)
      << read.status();
}

TEST(FabricChaosCompositionTest, CompositionIsThreadCountInvariant) {
  std::string reference;
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto session = MakeWorld(/*with_chaos=*/true);
    auto report = session->RunExperimentFabric(CompositionRequests(*session),
                                               RoundOptions(threads));
    ASSERT_TRUE(report.ok()) << report.status();
    std::string signature = ReportSignature(*report);
    if (reference.empty()) {
      reference = signature;
    } else {
      EXPECT_EQ(signature, reference);
    }
  }
}

}  // namespace
}  // namespace kea::apps
