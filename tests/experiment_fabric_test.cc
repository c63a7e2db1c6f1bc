#include "core/experiment_fabric.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/power_capping.h"
#include "apps/session.h"
#include "common/crash_point.h"
#include "common/csv.h"
#include "common/snapshot.h"
#include "sim/fluid_engine.h"

namespace kea::core {
namespace {

// The fabric tests run many full schedules (and the crash sweep runs one
// schedule dozens of times), so the world is small: 120 machines in racks of
// 8, which gives every SKU of the default catalog at least one whole rack
// and the bigger SKUs several — enough for genuinely concurrent flights.
constexpr int kMachines = 120;
constexpr int kMachinesPerRack = 8;
constexpr int kPreludeHours = 30;

sim::ClusterSpec SmallRackSpec() {
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = kMachines;
  spec.machines_per_rack = kMachinesPerRack;
  return spec;
}

/// Guardrails that cannot trip on real telemetry — admission/scheduling tests
/// exercise the fabric's concurrency rules, not the guardrail math.
GuardrailThresholds Generous() {
  GuardrailThresholds t;
  t.max_latency_ratio = 100.0;
  t.max_queue_p99_ratio = 100.0;
  t.queue_p99_floor_ms = 1e12;
  t.max_utilization = 1.0;
  return t;
}

/// Guardrails no treatment can satisfy — latency would have to drop 99%.
GuardrailThresholds Impossible() {
  GuardrailThresholds t;
  t.max_latency_ratio = 0.01;
  return t;
}

/// A standalone (non-durable) fabric world: cluster + engine + telemetry,
/// with a prelude already simulated so every flight has a baseline window.
struct FabricFixture {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::Cluster cluster;
  std::unique_ptr<sim::FluidEngine> engine;
  telemetry::TelemetryStore store;
  sim::HourIndex now = 0;

  FabricFixture() {
    cluster =
        std::move(sim::Cluster::Build(model.catalog(), SmallRackSpec())).value();
    engine = std::make_unique<sim::FluidEngine>(&model, &cluster, &workload,
                                                sim::FluidEngine::Options());
    EXPECT_TRUE(Advance(kPreludeHours).ok());
  }

  Status Advance(int hours) {
    KEA_RETURN_IF_ERROR(engine->Run(now, hours, &store));
    now += hours;
    return Status::OK();
  }

  ExperimentFabric::AdvanceFn AdvanceFn() {
    return [this](int hours) { return Advance(hours); };
  }

  StatusOr<ExperimentFabric::Report> Run(
      const std::vector<FlightRequest>& requests,
      ExperimentFabric::Options options = ExperimentFabric::Options()) {
    ExperimentFabric fabric(options);
    return fabric.Run(requests, &cluster, &store, now, AdvanceFn(), nullptr);
  }

  std::vector<int> MachinesOfSku(sim::SkuId sku) const {
    std::vector<int> out;
    for (const sim::Machine& m : cluster.machines()) {
      if (m.sku == sku) out.push_back(m.id);
    }
    return out;
  }

  std::string ConfigSignature() const {
    StateWriter w;
    for (const sim::Machine& m : cluster.machines()) {
      w.PutInt(m.id);
      w.PutInt(m.sc);
      w.PutInt(m.max_containers);
      w.PutInt(m.max_queued_containers);
      w.PutDouble(m.power_cap_fraction);
      w.PutBool(m.feature_enabled);
    }
    return w.Release();
  }
};

FlightRequest FeatureFlight(const std::string& name, sim::SkuId sku,
                            int per_arm = 4, int windows = 2) {
  FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.arms.resize(2);
  req.arms[1].feature_enabled = true;
  req.machines_per_arm = per_arm;
  req.window_hours = 6;
  req.num_windows = windows;
  req.guardrails = Generous();
  return req;
}

FlightRequest CapacityFlight(const std::string& name, sim::SkuId sku,
                             int max_containers, int windows = 1) {
  FlightRequest req;
  req.name = name;
  req.sku = sku;
  req.arms.resize(2);
  req.arms[1].max_containers = max_containers;
  req.machines_per_arm = 4;
  req.window_hours = 6;
  req.num_windows = windows;
  req.guardrails = Generous();
  return req;
}

/// Every machine of the conclusion's arms, once.
std::vector<int> ArmMachines(const ExperimentFabric::FlightConclusion& c) {
  std::set<int> all;
  for (const auto& arm : c.arms) all.insert(arm.machines.begin(), arm.machines.end());
  return {all.begin(), all.end()};
}

/// No machine may sit in two flights whose windows overlap, and within one
/// flight the arms must be disjoint — the partitioning invariant — unless
/// they are all one machine set, run time-sliced.
void ExpectNonInterfering(const ExperimentFabric::Report& report) {
  const auto& flights = report.flights;
  for (const auto& c : flights) {
    if (!c.admitted) continue;
    size_t total = 0;
    bool sliced = true;
    const std::set<int> first(c.arms[0].machines.begin(), c.arms[0].machines.end());
    for (const auto& arm : c.arms) {
      total += arm.machines.size();
      sliced = sliced && std::set<int>(arm.machines.begin(), arm.machines.end()) == first;
    }
    EXPECT_EQ(ArmMachines(c).size(), sliced ? first.size() : total)
        << c.name << ": arms overlap without being one machine set";
  }
  for (size_t a = 0; a < flights.size(); ++a) {
    for (size_t b = a + 1; b < flights.size(); ++b) {
      const auto& fa = flights[a];
      const auto& fb = flights[b];
      if (!fa.admitted || !fb.admitted) continue;
      if (fa.start_hour >= fb.end_hour || fb.start_hour >= fa.end_hour) {
        continue;  // Serialized: windows don't overlap.
      }
      std::vector<int> ma = ArmMachines(fa);
      std::unordered_set<int> mb_set;
      for (int id : ArmMachines(fb)) mb_set.insert(id);
      for (int id : ma) {
        EXPECT_EQ(mb_set.count(id), 0u)
            << fa.name << " and " << fb.name << " share machine " << id;
      }
      std::set<int> ra(fa.racks.begin(), fa.racks.end());
      for (int rack : fb.racks) {
        EXPECT_EQ(ra.count(rack), 0u)
            << fa.name << " and " << fb.name << " share rack " << rack;
      }
    }
  }
}

std::string FabricReportSignature(const ExperimentFabric::Report& report) {
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

// ---------------------------------------------------------------------------
// Admission, partitioning, and the typed interference reasons.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, ConcurrentFlightsOnDisjointRacks) {
  FabricFixture fx;
  std::string before = fx.ConfigSignature();
  auto report = fx.Run({FeatureFlight("a", 4), FeatureFlight("b", 4)});
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->admitted, 2u);
  EXPECT_EQ(report->rejected, 0u);
  EXPECT_EQ(report->trips, 0u);
  EXPECT_EQ(report->max_concurrent, 2u);
  EXPECT_EQ(report->peak_flighted_machines, 16u);
  for (const auto& c : report->flights) {
    EXPECT_TRUE(c.admitted);
    EXPECT_EQ(c.deferrals, 0u);
    EXPECT_EQ(c.start_hour, kPreludeHours);
    EXPECT_EQ(c.end_hour, kPreludeHours + 12);
    EXPECT_EQ(c.arms[1].machines.size(), 4u);
    EXPECT_EQ(c.arms[0].machines.size(), 4u);
    EXPECT_TRUE(c.effect_ok) << c.name;
    EXPECT_FALSE(c.tripped);
  }
  ExpectNonInterfering(*report);
  // Every flight concluded: the fleet configuration is fully restored.
  EXPECT_EQ(fx.ConfigSignature(), before);
  EXPECT_EQ(fx.now, kPreludeHours + 12);
}

TEST(ExperimentFabricTest, ImpossibleRequestIsRejectedWithTypedReason) {
  FabricFixture fx;
  // SKU 0 has 12 machines total; two 50-machine arms can never exist.
  FlightRequest big = FeatureFlight("too-big", 0, /*per_arm=*/50);
  auto report = fx.Run({big, FeatureFlight("ok", 4)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rejected, 1u);
  EXPECT_FALSE(report->flights[0].admitted);
  EXPECT_EQ(report->flights[0].rejected,
            InterferenceReason::kInsufficientMachines);
  Status rejected = ConclusionStatus(report->flights[0]);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rejected.message().find("INSUFFICIENT_MACHINES"), std::string::npos)
      << rejected;
  EXPECT_TRUE(report->flights[1].admitted);
  EXPECT_TRUE(ConclusionStatus(report->flights[1]).ok());
}

TEST(ExperimentFabricTest, RequestLargerThanBudgetIsRejectedPermanently) {
  FabricFixture fx;
  ExperimentFabric::Options options;
  options.max_flighted_fraction = 0.05;  // Budget: 6 of 120 machines.
  auto report = fx.Run({FeatureFlight("over-budget", 4)}, options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->rejected, 1u);
  EXPECT_EQ(report->flights[0].rejected,
            InterferenceReason::kBlastRadiusBudget);
}

TEST(ExperimentFabricTest, CapacityKnobFlightsSerialize) {
  FabricFixture fx;
  // Both flights move max_containers — they couple through the scheduler, so
  // the second must wait for the first even though their racks are disjoint.
  auto report =
      fx.Run({CapacityFlight("cap-a", 3, 20), CapacityFlight("cap-b", 5, 18)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  EXPECT_EQ(report->max_concurrent, 1u);
  const auto& first = report->flights[0];
  const auto& second = report->flights[1];
  EXPECT_EQ(first.deferrals, 0u);
  EXPECT_GT(second.deferrals, 0u);
  EXPECT_EQ(second.start_hour, first.end_hour);
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, SharedRackDefersUntilReservationExpires) {
  FabricFixture fx;
  // SKU 0 spans racks {0 (8 machines), 1 (4 machines)}; a 4-per-arm flight
  // needs the full rack 0, so two of them can only run back to back.
  auto report = fx.Run({FeatureFlight("rack-a", 0, 4, 1),
                        FeatureFlight("rack-b", 0, 4, 1)});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  const auto& first = report->flights[0];
  const auto& second = report->flights[1];
  EXPECT_GT(second.deferrals, 0u);
  EXPECT_EQ(second.start_hour, first.end_hour);
  EXPECT_EQ(first.racks, second.racks);  // Same rack, reused after expiry.
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, BlastRadiusBudgetDefersThirdFlight) {
  FabricFixture fx;
  ExperimentFabric::Options options;
  options.max_flighted_fraction = 0.134;  // Budget: 16 machines.
  auto report = fx.Run({FeatureFlight("a", 4, 4, 1), FeatureFlight("b", 4, 4, 2),
                        FeatureFlight("c", 4, 4, 1)},
                       options);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 3u);
  EXPECT_LE(report->peak_flighted_machines, 16u);
  const auto& third = report->flights[2];
  EXPECT_GT(third.deferrals, 0u);
  // Admitted the moment flight "a" concluded and freed budget.
  EXPECT_EQ(third.start_hour, report->flights[0].end_hour);
  ExpectNonInterfering(*report);
}

TEST(ExperimentFabricTest, PinnedArmsAreTakenAsGiven) {
  FabricFixture fx;
  std::vector<int> sku4 = fx.MachinesOfSku(4);
  ASSERT_GE(sku4.size(), 16u);
  FlightRequest req = FeatureFlight("pinned", 4, 8, 1);
  req.pinned_arms = {std::vector<int>(sku4.begin(), sku4.begin() + 8),
                     std::vector<int>(sku4.begin() + 8, sku4.begin() + 16)};

  auto report = fx.Run({req});
  ASSERT_TRUE(report.ok()) << report.status();
  const auto& c = report->flights[0];
  ASSERT_TRUE(c.admitted);
  ASSERT_EQ(c.arms.size(), 2u);
  EXPECT_EQ(c.arms[0].machines, req.pinned_arms[0]);
  EXPECT_EQ(c.arms[1].machines, req.pinned_arms[1]);
  EXPECT_EQ(c.machines_restored, 8u);  // Only the patched arm.
  std::set<int> racks;
  for (int id : ArmMachines(c)) {
    racks.insert(fx.cluster.machines()[static_cast<size_t>(id)].rack);
  }
  EXPECT_EQ(std::vector<int>(racks.begin(), racks.end()), c.racks);
}

TEST(ExperimentFabricTest, PinnedOverlapSerializesOnSharedMachines) {
  FabricFixture fx;
  std::vector<int> sku4 = fx.MachinesOfSku(4);
  ASSERT_GE(sku4.size(), 8u);
  FlightRequest a = FeatureFlight("pin-a", 4, 4, 1);
  a.pinned_arms = {std::vector<int>(sku4.begin(), sku4.begin() + 4),
                   std::vector<int>(sku4.begin() + 4, sku4.begin() + 8)};
  FlightRequest b = FeatureFlight("pin-b", 4, 4, 1);
  b.pinned_arms = a.pinned_arms;  // Identical arms: direct conflict.

  auto report = fx.Run({a, b});
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->admitted, 2u);
  EXPECT_GT(report->flights[1].deferrals, 0u);
  EXPECT_EQ(report->flights[1].start_hour, report->flights[0].end_hour);
  ExpectNonInterfering(*report);
}

// ---------------------------------------------------------------------------
// Guardrail trips: per-flight rollback, blast isolation, zombie reservations.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, TripRollsBackOnlyTheTrippedFlight) {
  FabricFixture fx;
  std::string before = fx.ConfigSignature();
  FlightRequest doomed = FeatureFlight("doomed", 4, 4, 4);
  doomed.guardrails = Impossible();
  auto report = fx.Run({doomed, FeatureFlight("healthy", 3, 4, 4)});
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->trips, 1u);
  const auto& tripped = report->flights[0];
  const auto& healthy = report->flights[1];
  EXPECT_TRUE(tripped.tripped);
  EXPECT_EQ(tripped.tripped_window, 0);
  EXPECT_FALSE(tripped.trip_eval.pass());
  // Ended at its first window boundary, not its planned horizon.
  EXPECT_EQ(tripped.end_hour, tripped.start_hour + 6);
  EXPECT_EQ(tripped.machines_restored, 4u);
  EXPECT_EQ(tripped.tripped_arm, 1);
  Status trip = ConclusionStatus(tripped);
  EXPECT_EQ(trip.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(trip.message().find(tripped.trip_eval.Describe()), std::string::npos)
      << trip;

  EXPECT_FALSE(healthy.tripped);
  EXPECT_TRUE(healthy.effect_ok);
  EXPECT_EQ(healthy.end_hour, healthy.start_hour + 24);
  EXPECT_EQ(fx.ConfigSignature(), before);
}

TEST(ExperimentFabricTest, SloGuardrailTripsAFlight) {
  // Generous on every ratio, but no machine-hour can meet a 1 ns latency
  // target: the SLO burn alone must trip the flight, exactly as it trips a
  // staged rollout under the same thresholds.
  FabricFixture fx;
  std::string before = fx.ConfigSignature();
  FlightRequest flight = FeatureFlight("slo", 4, 4, 2);
  flight.guardrails.slo_target_latency_s = 1e-9;
  auto report = fx.Run({flight});
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_EQ(report->trips, 1u);
  const auto& c = report->flights[0];
  EXPECT_TRUE(c.tripped);
  EXPECT_EQ(c.tripped_window, 0);
  EXPECT_TRUE(c.trip_eval.measurable);
  EXPECT_TRUE(c.trip_eval.latency_ok);
  EXPECT_TRUE(c.trip_eval.queue_ok);
  EXPECT_TRUE(c.trip_eval.utilization_ok);
  EXPECT_TRUE(c.trip_eval.slo_checked);
  EXPECT_FALSE(c.trip_eval.slo_ok);
  EXPECT_GT(c.trip_eval.observed_slo_burn, flight.guardrails.max_slo_burn);
  EXPECT_EQ(fx.ConfigSignature(), before);
}

TEST(ExperimentFabricTest, TrippedReservationBlocksRackUntilPlannedHorizon) {
  FabricFixture fx;
  // "doomed" trips at hour +6 but planned to run 24h on SKU 0's only viable
  // rack. Its reservation must keep holding the rack: post-rollback carryover
  // must not seed the queued "next" flight early.
  FlightRequest doomed = FeatureFlight("doomed", 0, 4, 4);
  doomed.guardrails = Impossible();
  auto report = fx.Run({doomed, FeatureFlight("next", 0, 4, 1)});
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->flights[0].tripped);
  EXPECT_EQ(report->flights[0].end_hour, kPreludeHours + 6);
  EXPECT_EQ(report->flights[1].start_hour, kPreludeHours + 24);
}

// ---------------------------------------------------------------------------
// Determinism: thread-count invariance of the whole schedule.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, ReportIsBitIdenticalAcrossThreadCounts) {
  std::vector<FlightRequest> requests = {FeatureFlight("a", 4, 4, 2),
                                         FeatureFlight("b", 4, 4, 2),
                                         FeatureFlight("c", 3, 4, 2)};
  // "c" is the power-capping shape: one control and three treatment arms.
  requests[2].arms.resize(4);
  requests[2].arms[2].power_cap_fraction = 0.2;
  requests[2].arms[3] = requests[2].arms[1];
  requests[2].arms[3].power_cap_fraction = 0.2;
  requests.push_back(FeatureFlight("doomed", 5, 4, 2));
  requests.back().guardrails = Impossible();

  std::string reference;
  for (int threads : {1, 4, 8}) {
    FabricFixture fx;
    ExperimentFabric::Options options;
    options.num_threads = threads;
    auto report = fx.Run(requests, options);
    ASSERT_TRUE(report.ok()) << report.status();
    std::string signature = FabricReportSignature(*report);
    if (reference.empty()) {
      reference = signature;
      EXPECT_EQ(report->trips, 1u);
      EXPECT_EQ(report->admitted, 4u);
      ASSERT_EQ(report->flights[2].arms.size(), 4u);
      EXPECT_TRUE(report->flights[2].effect_ok);
    } else {
      EXPECT_EQ(signature, reference) << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Property: random queues of pinned and unpinned requests never put one
// machine in two flights at once, nor in two arms of one concurrent flight.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, PropertyNoMachineIsEverInTwoArmsAtOnce) {
  std::mt19937_64 rng(20260808);
  uint64_t deferrals = 0;
  size_t sliced_admitted = 0;
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    FabricFixture fx;
    const std::string before = fx.ConfigSignature();
    std::vector<FlightRequest> queue;
    const int n = 3 + static_cast<int>(rng() % 4);
    for (int i = 0; i < n; ++i) {
      const sim::SkuId sku = static_cast<sim::SkuId>(2 + rng() % 4);
      const int per_arm = 1 + static_cast<int>(rng() % 3);
      const int windows = 1 + static_cast<int>(rng() % 3);
      FlightRequest req = FeatureFlight("q", sku, per_arm, windows);
      req.name += std::to_string(i);
      req.window_hours = 3 + static_cast<int>(rng() % 4);
      const ConfigPatch feature = req.arms[1];
      req.arms.resize(2 + rng() % 2, feature);
      if (req.arms.size() == 3) req.arms[2].power_cap_fraction = 0.2;
      if (rng() % 4 == 0) req.arms[1] = CapacityFlight("", sku, 20).arms[1];
      if (rng() % 5 == 0) req.guardrails = Impossible();
      const int k = static_cast<int>(req.arms.size());
      switch (rng() % 3) {
        case 0:  // Unpinned: the fabric deals free racks.
          break;
        case 1: {  // Pinned, disjoint arms.
          std::vector<int> pool = fx.MachinesOfSku(sku);
          std::shuffle(pool.begin(), pool.end(), rng);
          const size_t size = 1 + rng() % 3;
          for (size_t a = 0; a < static_cast<size_t>(k); ++a) {
            req.pinned_arms.emplace_back(pool.begin() + a * size,
                                         pool.begin() + (a + 1) * size);
          }
          break;
        }
        default: {  // Pinned, time-sliced over one machine set.
          std::vector<int> pool = fx.MachinesOfSku(sku);
          std::shuffle(pool.begin(), pool.end(), rng);
          pool.resize(2 + rng() % 4);
          req.pinned_arms.assign(static_cast<size_t>(k), pool);
          req.num_windows = std::max(req.num_windows, k);
          break;
        }
      }
      queue.push_back(std::move(req));
    }

    auto report = fx.Run(queue);
    ASSERT_TRUE(report.ok()) << report.status();
    ExpectNonInterfering(*report);
    EXPECT_EQ(fx.ConfigSignature(), before);
    EXPECT_LE(report->peak_flighted_machines, static_cast<size_t>(kMachines / 4));
    for (size_t i = 0; i < queue.size(); ++i) {
      const auto& c = report->flights[i];
      deferrals += c.deferrals;
      if (!c.admitted) continue;
      if (!queue[i].pinned_arms.empty() && IsTimeSliced(queue[i])) ++sliced_admitted;
      ASSERT_EQ(c.arms.size(), queue[i].arms.size());
      for (size_t a = 0; a < c.arms.size(); ++a) {
        if (queue[i].pinned_arms.empty()) {
          EXPECT_EQ(c.arms[a].machines.size(),
                    static_cast<size_t>(queue[i].machines_per_arm));
        } else {
          EXPECT_EQ(c.arms[a].machines, queue[i].pinned_arms[a]);
        }
        for (int id : c.arms[a].machines) {
          EXPECT_EQ(fx.cluster.machines()[static_cast<size_t>(id)].sku,
                    queue[i].sku);
        }
      }
    }
  }
  // The queues must actually provoke conflicts and time-sliced flights.
  EXPECT_GT(deferrals, 0u);
  EXPECT_GT(sliced_admitted, 0u);
}

// ---------------------------------------------------------------------------
// Ground truth: the simulator's PerfModel knows the true effects, and the
// one split rule must recover them. The world is the experiment-design
// ablation's: 2,000 machines in racks of 40 (SC alternating within each
// rack), engine seed 71, one baseline day, then a week of flights on SKU 4
// with 100 machines per arm. An even/odd split by machine id puts every SC2
// machine in one arm; these tests catch that confound.
// ---------------------------------------------------------------------------

struct GroundTruthWorld {
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::Cluster cluster;
  ExperimentFabric::Report report;
  Status status;
};

const GroundTruthWorld& GroundTruth() {
  static const GroundTruthWorld* world = [] {
    auto* w = new GroundTruthWorld;
    sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
    w->cluster = std::move(sim::Cluster::Build(w->model.catalog(),
                                               sim::ClusterSpec::Default()))
                     .value();
    sim::FluidEngine::Options options;
    options.seed = 71;
    sim::FluidEngine engine(&w->model, &w->cluster, &workload, options);
    telemetry::TelemetryStore store;
    sim::HourIndex now = 0;
    auto advance = [&](int hours) {
      KEA_RETURN_IF_ERROR(engine.Run(now, hours, &store));
      now += hours;
      return Status::OK();
    };
    w->status = advance(sim::kHoursPerDay);
    // A/A: the "treatment" sets the Feature to the fleet's own value.
    FlightRequest aa = FeatureFlight("a/a", 4, 100, 7);
    aa.arms[1].feature_enabled = false;
    aa.window_hours = sim::kHoursPerDay;
    FlightRequest feature = FeatureFlight("feature", 4, 100, 7);
    feature.window_hours = sim::kHoursPerDay;
    if (w->status.ok()) {
      auto report = ExperimentFabric(ExperimentFabric::Options())
                        .Run({aa, feature}, &w->cluster, &store, now, advance,
                             nullptr);
      w->status = report.status();
      if (report.ok()) w->report = std::move(report).value();
    }
    return w;
  }();
  return *world;
}

TEST(FabricGroundTruthTest, AaFlightFindsNoEffect) {
  const GroundTruthWorld& w = GroundTruth();
  ASSERT_TRUE(w.status.ok()) << w.status;
  const auto& aa = w.report.flights[0];
  ASSERT_TRUE(aa.effect_ok);
  EXPECT_FALSE(aa.arms[1].data_read.significant)
      << aa.arms[1].data_read.percent_change << " t=" << aa.arms[1].data_read.t_value;
  EXPECT_FALSE(aa.arms[1].task_latency.significant)
      << aa.arms[1].task_latency.percent_change
      << " t=" << aa.arms[1].task_latency.t_value;
}

TEST(FabricGroundTruthTest, FeatureLatencyMatchesPerfModel) {
  const GroundTruthWorld& w = GroundTruth();
  ASSERT_TRUE(w.status.ok()) << w.status;
  const double truth =
      w.model.TaskLatencySeconds({0, 4}, 0.6, 14, 0.0, true) /
          w.model.TaskLatencySeconds({0, 4}, 0.6, 14, 0.0, false) -
      1.0;
  const auto& feature = w.report.flights[1];
  ASSERT_TRUE(feature.effect_ok);
  EXPECT_NEAR(feature.arms[1].task_latency.percent_change, truth, 0.01)
      << "truth " << truth;
}

TEST(FabricGroundTruthTest, EveryRackSplitsEachScEvenlyAcrossArms) {
  const GroundTruthWorld& w = GroundTruth();
  ASSERT_TRUE(w.status.ok()) << w.status;
  for (const auto& c : w.report.flights) {
    ASSERT_TRUE(c.admitted) << c.name;
    std::map<std::pair<int, sim::ScId>, std::vector<int>> counts;
    for (size_t a = 0; a < c.arms.size(); ++a) {
      for (int id : c.arms[a].machines) {
        const sim::Machine& m = w.cluster.machines()[static_cast<size_t>(id)];
        auto& per_arm = counts[{m.rack, m.sc}];
        per_arm.resize(c.arms.size());
        ++per_arm[a];
      }
    }
    EXPECT_FALSE(counts.empty());
    for (const auto& [stratum, per_arm] : counts) {
      auto [lo, hi] = std::minmax_element(per_arm.begin(), per_arm.end());
      EXPECT_LE(*hi - *lo, 1) << c.name << ": rack " << stratum.first << " SC "
                              << stratum.second;
    }
  }
}

// ---------------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------------

TEST(ExperimentFabricTest, Validation) {
  FabricFixture fx;
  ExperimentFabric fabric((ExperimentFabric::Options()));
  auto advance = fx.AdvanceFn();
  std::vector<FlightRequest> good = {FeatureFlight("ok", 4)};

  EXPECT_EQ(fabric.Run(good, nullptr, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fabric.Run(good, &fx.cluster, nullptr, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      fabric.Run({}, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  ExperimentFabric::Options bad;
  bad.max_flighted_fraction = 0.0;
  EXPECT_EQ(ExperimentFabric(bad)
                .Run(good, &fx.cluster, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  bad = ExperimentFabric::Options();
  bad.num_threads = 0;
  EXPECT_EQ(ExperimentFabric(bad)
                .Run(good, &fx.cluster, &fx.store, fx.now, advance, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  std::vector<FlightRequest> zero_arm = good;
  zero_arm[0].machines_per_arm = 0;
  EXPECT_EQ(
      fabric.Run(zero_arm, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  std::vector<FlightRequest> empty_patch = good;
  empty_patch[0].arms[1] = ConfigPatch();
  EXPECT_EQ(
      fabric.Run(empty_patch, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  std::vector<FlightRequest> bad_pin = good;
  bad_pin[0].pinned_arms = {{99999}, {fx.MachinesOfSku(4)[0]}};
  EXPECT_EQ(
      fabric.Run(bad_pin, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kOutOfRange);

  // Malformed pinned arms: each is refused before any step, so the fleet
  // and the clock are untouched.
  const std::string before = fx.ConfigSignature();
  const sim::HourIndex now = fx.now;
  const std::vector<int> sku4 = fx.MachinesOfSku(4);
  const std::vector<int> sku0 = fx.MachinesOfSku(0);
  auto pinned = [&](std::vector<std::vector<int>> arms, int windows = 2) {
    std::vector<FlightRequest> queue = good;
    queue[0].pinned_arms = std::move(arms);
    queue[0].num_windows = windows;
    return fabric.Run(queue, &fx.cluster, &fx.store, fx.now, advance, nullptr)
        .status()
        .code();
  };
  // A SKU-4 request pinned to SKU-0 machines.
  EXPECT_EQ(pinned({{sku0[0], sku0[1], sku0[2], sku0[3]},
                    {sku0[4], sku0[5], sku0[6], sku0[7]}}),
            StatusCode::kInvalidArgument);
  // One machine repeated within an arm.
  EXPECT_EQ(pinned({{sku4[0], sku4[0], sku4[0], sku4[0]},
                    {sku4[1], sku4[2], sku4[3], sku4[4]}}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(pinned({{sku4[0], sku4[0]}, {sku4[0], sku4[0]}}),
            StatusCode::kInvalidArgument);
  // Arms that overlap without being identical.
  EXPECT_EQ(pinned({{sku4[0], sku4[1]}, {sku4[1], sku4[2]}}),
            StatusCode::kInvalidArgument);
  // One list per arm, none empty; a time-sliced flight needs a window per
  // arm.
  EXPECT_EQ(pinned({{sku4[0], sku4[1]}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(pinned({{sku4[0]}, {}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(pinned({{sku4[0], sku4[1]}, {sku4[1], sku4[0]}}, 1),
            StatusCode::kInvalidArgument);
  std::vector<FlightRequest> one_arm = good;
  one_arm[0].arms.resize(1);
  EXPECT_EQ(
      fabric.Run(one_arm, &fx.cluster, &fx.store, fx.now, advance, nullptr)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.ConfigSignature(), before);
  EXPECT_EQ(fx.now, now);

  // Well-formed pinned arms, disjoint or time-sliced, validate.
  EXPECT_TRUE(ExperimentFabric::Validate(
                  {FeatureFlight("ok", 4)}, ExperimentFabric::Options(), fx.cluster)
                  .ok());
}

TEST(ExperimentFabricTest, ConclusionCodecRoundTrips) {
  ExperimentFabric::FlightConclusion c;
  c.flight = 3;
  c.name = "codec";
  c.admitted = true;
  c.rejected = InterferenceReason::kNone;
  c.deferrals = 2;
  c.start_hour = 30;
  c.end_hour = 54;
  c.racks = {9, 10};
  c.arms.resize(3);
  c.arms[0].machines = {73, 75, 77};
  c.arms[1].machines = {72, 74, 76};
  c.arms[2].machines = {78, 79, 80};
  c.arms[1].hours = 24;
  c.tripped = true;
  c.tripped_window = 1;
  c.tripped_arm = 2;
  c.effect_ok = true;
  c.arms[1].data_read.metric = "data_read_mb";
  c.arms[1].data_read.percent_change = 0.12;
  c.arms[1].data_read.t_value = 4.5;
  c.arms[1].data_read.significant = true;
  c.arms[1].data_read_ci_low = 0.07;
  c.arms[1].data_read_ci_high = 0.17;
  c.arms[2].task_latency.percent_change = -0.04;
  c.down_hours = 9;
  c.machines_restored = 6;

  ExperimentFabric::FlightConclusion back;
  ASSERT_TRUE(Decode(
                  Encode(c), &back)
                  .ok());
  EXPECT_EQ(Encode(back),
            Encode(c));
  EXPECT_EQ(back.name, "codec");
  EXPECT_EQ(back.racks, c.racks);
  ASSERT_EQ(back.arms.size(), 3u);
  EXPECT_EQ(back.arms[1].machines, c.arms[1].machines);
  EXPECT_EQ(back.arms[2].task_latency.percent_change, -0.04);
  EXPECT_TRUE(back.tripped);
  EXPECT_EQ(back.tripped_arm, 2);
  EXPECT_EQ(back.down_hours, 9u);

  EXPECT_FALSE(
      Decode("torn", &back).ok());
}

}  // namespace
}  // namespace kea::core

// ---------------------------------------------------------------------------
// The durable fabric: session wiring, resume equivalence, and the exhaustive
// mid-flight crash sweep (kill at every journaled transition, resume, demand
// a bit-identical world).
// ---------------------------------------------------------------------------

namespace kea::apps {
namespace {

using core::ExperimentFabric;
using core::FlightRequest;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  std::remove((dir + "/ledger.kea").c_str());
  std::remove((dir + "/ledger.kea.tmp").c_str());
  std::remove((dir + "/checkpoint.kea").c_str());
  std::remove((dir + "/checkpoint.kea.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string Slug(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return out;
}

KeaSession::Config SweepConfig() {
  KeaSession::Config config;
  config.machines = kea::core::kMachines;
  config.seed = 7;
  config.cluster = kea::core::SmallRackSpec();
  return config;
}

std::unique_ptr<KeaSession> MakeDurableSession(const std::string& dir) {
  auto session = std::move(KeaSession::Create(SweepConfig())).value();
  EXPECT_TRUE(session->EnableDurability(dir).ok());
  EXPECT_TRUE(session->Simulate(kea::core::kPreludeHours).ok());
  return session;
}

/// The sweep queue covers every fabric transition kind: a two-window feature
/// flight, a capacity-knob flight, and a second knob flight that must defer
/// (knob interaction) and start at a later boundary. `tripping` swaps the
/// feature flight's guardrails for impossible ones so the rollback step runs.
std::vector<FlightRequest> SweepRequests(bool tripping) {
  FlightRequest f0 = kea::core::FeatureFlight("feature-sku4", 4, 4, 2);
  if (tripping) f0.guardrails = kea::core::Impossible();
  return {f0, kea::core::CapacityFlight("cap-sku3", 3, 20, 1),
          kea::core::CapacityFlight("cap-sku5", 5, 18, 1)};
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

/// Exactly-once at the patch level: across the whole ledger no machine is
/// recorded twice under the same flight key — a re-driven flight start
/// records nothing new, so a double-applied patch would surface here.
void ExpectFlightPatchesExactlyOnce(const core::DeploymentLedger& ledger) {
  auto table = ParseCsv(ledger.AppliedChangesCsv());
  ASSERT_TRUE(table.ok()) << table.status();
  int key_col = table->ColumnIndex("key");
  int kind_col = table->ColumnIndex("kind");
  int machine_col = table->ColumnIndex("machine_id");
  ASSERT_GE(key_col, 0);
  std::set<std::string> seen;
  for (const auto& row : table->rows) {
    if (row[static_cast<size_t>(kind_col)] != "flight_machine") continue;
    std::string patch = row[static_cast<size_t>(key_col)] + "#" +
                        row[static_cast<size_t>(machine_col)];
    EXPECT_TRUE(seen.insert(patch).second) << "machine patched twice: " << patch;
  }
}

struct FabricReference {
  std::string report_sig;
  std::string cluster_sig;
  std::string store_csv;
  std::string ledger_csv;
  sim::HourIndex now = 0;
  size_t trips = 0;
  std::vector<std::pair<std::string, int>> crash_points;
};

FabricReference RunFabricReference(const std::string& dir,
                                   const std::vector<FlightRequest>& requests) {
  FabricReference ref;
  auto session = MakeDurableSession(dir);
  CrashPoints::Reset();
  CrashPoints::SetRecording(true);
  auto report =
      session->RunExperimentFabric(requests, KeaSession::FabricRoundOptions());
  ref.crash_points = CrashPoints::Reached();
  CrashPoints::Reset();
  EXPECT_TRUE(report.ok()) << report.status();
  if (!report.ok()) return ref;
  ref.report_sig = kea::core::FabricReportSignature(*report);
  ref.cluster_sig = ClusterSignature(*session);
  ref.store_csv = session->store().ToCsv();
  ref.ledger_csv = session->ledger()->AppliedChangesCsv();
  ref.now = session->now();
  ref.trips = report->trips;
  return ref;
}

/// Kill the fabric at every (crash point, occurrence) the reference run
/// reached, resume from disk, re-drive the same queue, and demand the final
/// world be bit-identical to the uninterrupted run.
void SweepFabricCrashPoints(const FabricReference& ref,
                            const std::vector<FlightRequest>& requests,
                            const std::string& tag) {
  ASSERT_FALSE(ref.crash_points.empty());
  int scenario = 0;
  for (const auto& [point, hits] : ref.crash_points) {
    for (int occurrence = 0; occurrence < hits; ++occurrence, ++scenario) {
      SCOPED_TRACE(point + " occurrence " + std::to_string(occurrence));
      const std::string dir =
          FreshDir("fabric_crash_" + tag + "_" + std::to_string(scenario) +
                   "_" + Slug(point));
      auto session = MakeDurableSession(dir);

      CrashPoints::Arm(point, occurrence);
      auto crashed = session->RunExperimentFabric(
          requests, KeaSession::FabricRoundOptions());
      CrashPoints::Reset();
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
      session.reset();  // Process death: in-memory state is gone.

      auto resumed = KeaSession::Resume(dir);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      auto rerun = (*resumed)->RunExperimentFabric(
          requests, KeaSession::FabricRoundOptions());
      ASSERT_TRUE(rerun.ok()) << rerun.status();

      EXPECT_EQ(kea::core::FabricReportSignature(*rerun), ref.report_sig);
      EXPECT_EQ(ClusterSignature(**resumed), ref.cluster_sig);
      EXPECT_EQ((*resumed)->now(), ref.now);
      EXPECT_EQ((*resumed)->store().ToCsv(), ref.store_csv);
      EXPECT_EQ((*resumed)->ledger()->AppliedChangesCsv(), ref.ledger_csv);
      ExpectFlightPatchesExactlyOnce(*(*resumed)->ledger());
    }
  }
}

TEST(FabricCrashRecoveryTest, DurableRunMatchesPlainRun) {
  // Journaling and per-step checkpoints must not change the schedule: the
  // durable fabric's report is bit-identical to a plain session's.
  auto plain = std::move(KeaSession::Create(SweepConfig())).value();
  ASSERT_TRUE(plain->Simulate(kea::core::kPreludeHours).ok());
  auto plain_report = plain->RunExperimentFabric(
      SweepRequests(false), KeaSession::FabricRoundOptions());
  ASSERT_TRUE(plain_report.ok()) << plain_report.status();

  auto durable = MakeDurableSession(FreshDir("fabric_durable_vs_plain"));
  auto durable_report = durable->RunExperimentFabric(
      SweepRequests(false), KeaSession::FabricRoundOptions());
  ASSERT_TRUE(durable_report.ok()) << durable_report.status();

  EXPECT_EQ(kea::core::FabricReportSignature(*plain_report),
            kea::core::FabricReportSignature(*durable_report));
  EXPECT_EQ(ClusterSignature(*plain), ClusterSignature(*durable));
  EXPECT_EQ(plain->store().ToCsv(), durable->store().ToCsv());
}

TEST(FabricCrashRecoveryTest, FabricBeforeTelemetryIsRejected) {
  auto session = std::move(KeaSession::Create(SweepConfig())).value();
  EXPECT_EQ(session
                ->RunExperimentFabric(SweepRequests(false),
                                      KeaSession::FabricRoundOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(FabricCrashRecoveryTest, SecondFabricRunGetsFreshKeys) {
  auto session = MakeDurableSession(FreshDir("fabric_second_run"));
  auto first = session->RunExperimentFabric(SweepRequests(false),
                                            KeaSession::FabricRoundOptions());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = session->RunExperimentFabric(SweepRequests(false),
                                             KeaSession::FabricRoundOptions());
  ASSERT_TRUE(second.ok()) << second.status();
  // Both runs journaled under distinct key prefixes; nothing was replayed
  // into the other.
  EXPECT_TRUE(session->ledger()->Has("fab/0/finished"));
  EXPECT_TRUE(session->ledger()->Has("fab/1/finished"));
  EXPECT_TRUE(session->ledger()->Has("fab0/f0/started"));
  EXPECT_TRUE(session->ledger()->Has("fab1/f0/started"));
  EXPECT_EQ(second->admitted, 3u);
  ExpectFlightPatchesExactlyOnce(*session->ledger());
}

TEST(FabricCrashRecoveryTest, ResumedRunMustPassTheSameQueue) {
  const std::string dir = FreshDir("fabric_queue_mismatch");
  auto session = MakeDurableSession(dir);
  CrashPoints::Arm("fabric.advanced.post_record", 0);
  auto crashed = session->RunExperimentFabric(SweepRequests(false),
                                              KeaSession::FabricRoundOptions());
  CrashPoints::Reset();
  ASSERT_FALSE(crashed.ok());
  session.reset();

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  std::vector<FlightRequest> short_queue = {SweepRequests(false)[0]};
  EXPECT_EQ((*resumed)
                ->RunExperimentFabric(short_queue,
                                      KeaSession::FabricRoundOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // Same queue size, but flight 0 now has three arms where its journaled
  // admission recorded two: the record is refused, not indexed past.
  std::vector<FlightRequest> more_arms = SweepRequests(false);
  more_arms[0].arms.push_back(more_arms[0].arms[1]);
  more_arms[0].arms[2].power_cap_fraction = 0.2;
  auto refused =
      (*resumed)->RunExperimentFabric(more_arms, KeaSession::FabricRoundOptions());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("admitted with 2 arms"),
            std::string::npos)
      << refused.status();
}

TEST(FabricCrashRecoveryTest, SweepEveryCrashPointInConvergingFabric) {
  auto requests = SweepRequests(false);
  FabricReference ref =
      RunFabricReference(FreshDir("fabric_ref_converge"), requests);
  ASSERT_FALSE(ref.report_sig.empty());
  EXPECT_EQ(ref.trips, 0u);

  // The matrix must cover both halves of every journaled fabric transition —
  // died-before-journaling and journaled-but-not-durable — plus the torn
  // ledger append and the checkpoint rename.
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  for (const char* expected :
       {"session.fabric_started.pre", "session.fabric_started.post_record",
        "fabric.admitted.pre", "fabric.admitted.post_record",
        "fabric.started.pre", "fabric.started.post_record",
        "fabric.advanced.pre", "fabric.advanced.post_record",
        "fabric.verdict.pre", "fabric.verdict.post_record",
        "fabric.concluded.pre", "fabric.concluded.post_record",
        "session.fabric_finished.pre", "session.fabric_finished.post_record",
        "journal.append.torn", "atomic_write.before_rename"}) {
    EXPECT_TRUE(names.count(expected)) << "unreached crash point: " << expected;
  }

  SweepFabricCrashPoints(ref, requests, "converge");
}

TEST(FabricCrashRecoveryTest, SweepEveryCrashPointThroughFlightRollback) {
  // Impossible guardrails on the feature flight: it trips at its first
  // boundary, so this sweep covers the per-flight rollback step — a crash
  // between the journaled rollback intent and its effect must not lose the
  // rollback, and must not touch the surviving flights.
  auto requests = SweepRequests(true);
  const std::string pre_dir = FreshDir("fabric_ref_rollback_pre");
  std::string pre_fabric_cluster;
  {
    auto session = MakeDurableSession(pre_dir);
    pre_fabric_cluster = ClusterSignature(*session);
  }
  FabricReference ref =
      RunFabricReference(FreshDir("fabric_ref_rollback"), requests);
  ASSERT_FALSE(ref.report_sig.empty());
  ASSERT_EQ(ref.trips, 1u);
  // Every flight concluded or rolled back: exact pre-fabric configuration.
  EXPECT_EQ(ref.cluster_sig, pre_fabric_cluster);
  std::set<std::string> names;
  for (const auto& [point, hits] : ref.crash_points) names.insert(point);
  EXPECT_TRUE(names.count("fabric.rollback.pre"));
  EXPECT_TRUE(names.count("fabric.rollback.post_record"));

  SweepFabricCrashPoints(ref, requests, "rollback");
}

/// A small power-capping queue — two cap levels, each one 4-arm request on
/// the same hybrid groups of SKU 3, so the fabric serialises them — beside a
/// time-sliced feature flight on SKU 5, which switches arms in its verdicts.
std::vector<FlightRequest> PowerCappingQueue() {
  auto session = std::move(KeaSession::Create(SweepConfig())).value();
  PowerCappingStudy::Options options;
  options.sku = 3;
  options.group_size = 2;
  options.cap_levels = {0.10, 0.30};
  options.hours_per_round = 6;
  auto requests = PowerCappingStudy(options).Requests(session->cluster());
  EXPECT_TRUE(requests.ok()) << requests.status();
  if (!requests.ok()) return {};
  // Two-machine arms over 6-hour rounds are too noisy for the study's own
  // guardrails; this sweep is about crash safety, so no round may trip.
  for (FlightRequest& req : *requests) req.guardrails = kea::core::Generous();
  FlightRequest sliced = kea::core::FeatureFlight("sliced-sku5", 5, 4, 3);
  std::vector<int> machines;
  for (const sim::Machine& m : session->cluster().machines()) {
    if (m.sku == 5 && machines.size() < 4) machines.push_back(m.id);
  }
  sliced.pinned_arms = {machines, machines};
  requests->push_back(sliced);
  return *requests;
}

TEST(FabricCrashRecoveryTest, SweepEveryCrashPointThroughPowerCappingQueue) {
  const auto requests = PowerCappingQueue();
  ASSERT_EQ(requests.size(), 3u);
  std::string pre_fabric_cluster;
  {
    auto session = MakeDurableSession(FreshDir("fabric_ref_power_pre"));
    pre_fabric_cluster = ClusterSignature(*session);
  }
  FabricReference ref = RunFabricReference(FreshDir("fabric_ref_power"), requests);
  ASSERT_FALSE(ref.report_sig.empty());
  EXPECT_EQ(ref.trips, 0u);
  // Every arm of every round was restored: no machine is left patched.
  EXPECT_EQ(ref.cluster_sig, pre_fabric_cluster);
  SweepFabricCrashPoints(ref, requests, "power");
}

/// A guarded round that fits the small rack world's prelude.
KeaSession::GuardedRoundOptions SmallRoundOptions() {
  KeaSession::GuardedRoundOptions options;
  options.lookback_hours = kea::core::kPreludeHours;
  options.rollout.wave_fractions = {0.5, 1.0};
  options.rollout.observe_hours_per_wave = 4;
  options.rollout.baseline_hours = 8;
  return options;
}

/// Fleet, telemetry and clock of a session, for end-state comparisons.
std::string WorldSignature(const KeaSession& session) {
  return ClusterSignature(session) + session.store().ToCsv() +
         std::to_string(session.now());
}

TEST(FabricCrashRecoveryTest, FabricInFlightRefusesRoundsUntilItFinishes) {
  // A fabric run crashed after journaling flight f0's start. A round run
  // before the fabric call is repeated used to checkpoint past f0's start,
  // so the repeated fabric replayed it and f0's patch never ran.
  const auto requests = SweepRequests(false);
  std::string want_world, want_report;
  {
    auto session = MakeDurableSession(FreshDir("fabric_then_round"));
    auto report = session->RunExperimentFabric(requests, KeaSession::FabricRoundOptions());
    ASSERT_TRUE(report.ok()) << report.status();
    want_report = kea::core::FabricReportSignature(*report);
    ASSERT_TRUE(session->RunGuardedTuningRound(SmallRoundOptions()).ok());
    want_world = WorldSignature(*session);
  }
  const std::string dir = FreshDir("fabric_in_flight_round");
  {
    auto session = MakeDurableSession(dir);
    CrashPoints::Arm("fabric.started.post_record", 0);
    auto crashed = session->RunExperimentFabric(requests, KeaSession::FabricRoundOptions());
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& s = **resumed;
  const uint64_t events = s.ledger()->next_seq();
  EXPECT_EQ(s.RunGuardedTuningRound(SmallRoundOptions()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.RunYarnTuningRound(YarnConfigTuner::Options(), kea::core::kPreludeHours, 1)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.ledger()->next_seq(), events);
  auto report = s.RunExperimentFabric(requests, KeaSession::FabricRoundOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(kea::core::FabricReportSignature(*report), want_report);
  ASSERT_TRUE(s.RunGuardedTuningRound(SmallRoundOptions()).ok());
  EXPECT_EQ(WorldSignature(s), want_world);
}

TEST(FabricCrashRecoveryTest, RoundOrRollbackInFlightRefusesTheFabric) {
  const auto requests = SweepRequests(false);
  std::string want_world;
  {
    auto session = MakeDurableSession(FreshDir("round_then_fabric"));
    ASSERT_TRUE(session->RunGuardedTuningRound(SmallRoundOptions()).ok());
    ASSERT_TRUE(
        session->RunExperimentFabric(requests, KeaSession::FabricRoundOptions()).ok());
    want_world = WorldSignature(*session);
  }
  const std::string dir = FreshDir("round_in_flight_fabric");
  {
    auto session = MakeDurableSession(dir);
    CrashPoints::Arm("session.round_started.post_record", 0);
    auto crashed = session->RunGuardedTuningRound(SmallRoundOptions());
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed.status())) << crashed.status();
  }
  {
    auto resumed = KeaSession::Resume(dir);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    KeaSession& s = **resumed;
    const uint64_t events = s.ledger()->next_seq();
    EXPECT_EQ(s.RunExperimentFabric(requests, KeaSession::FabricRoundOptions())
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(s.ledger()->next_seq(), events);
    ASSERT_TRUE(s.RunGuardedTuningRound(SmallRoundOptions()).ok());
    ASSERT_TRUE(s.RunExperimentFabric(requests, KeaSession::FabricRoundOptions()).ok());
    EXPECT_EQ(WorldSignature(s), want_world);

    // A rollback journaled but not yet durable refuses the fabric too.
    ASSERT_TRUE(
        s.RunYarnTuningRound(YarnConfigTuner::Options(), kea::core::kPreludeHours, 1).ok());
    ASSERT_TRUE(s.deployment().has_pending_batch());
    CrashPoints::Arm("session.rollback.post_record", 0);
    Status crashed = s.RollbackLastDeployment();
    CrashPoints::Reset();
    ASSERT_TRUE(CrashPoints::IsCrash(crashed)) << crashed;
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  KeaSession& s = **resumed;
  EXPECT_EQ(s.RunExperimentFabric(requests, KeaSession::FabricRoundOptions())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(s.RollbackLastDeployment().ok());
  EXPECT_TRUE(s.RunExperimentFabric(requests, KeaSession::FabricRoundOptions()).ok());
}

TEST(FabricCrashRecoveryTest, RefusedQueueIsNeverSealed) {
  // A queue the fabric refuses used to be sealed at FABRIC_STARTED first.
  // That held the fabric in flight for good: rounds and rollbacks were
  // refused, and an empty queue could never be repeated to completion.
  const std::string dir = FreshDir("fabric_refused_queue");
  {
    auto session = MakeDurableSession(dir);
    std::vector<FlightRequest> zero_arm = SweepRequests(false);
    zero_arm[0].machines_per_arm = 0;
    KeaSession::FabricRoundOptions no_baseline;
    no_baseline.fabric.baseline_hours = 0;
    const uint64_t events = session->ledger()->next_seq();
    EXPECT_EQ(session->RunExperimentFabric({}, KeaSession::FabricRoundOptions())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session->RunExperimentFabric(zero_arm, KeaSession::FabricRoundOptions())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session->RunExperimentFabric(SweepRequests(false), no_baseline)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session->ledger()->next_seq(), events);

    ASSERT_TRUE(
        session->RunYarnTuningRound(YarnConfigTuner::Options(), kea::core::kPreludeHours, 1)
            .ok());
    ASSERT_TRUE(session->deployment().has_pending_batch());
    EXPECT_TRUE(session->RollbackLastDeployment().ok());
    EXPECT_TRUE(session->RunGuardedTuningRound(SmallRoundOptions()).ok());
  }
  // Nothing sealed survives a restart either: fabric run 0 is still free.
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE((*resumed)
                  ->RunExperimentFabric(SweepRequests(false), KeaSession::FabricRoundOptions())
                  .ok());
  EXPECT_TRUE((*resumed)->ledger()->Has("fab/0/finished"));
}

TEST(FabricCrashRecoveryTest, CleanResumeAfterFabricIsBitIdentical) {
  const std::string dir = FreshDir("fabric_clean_resume");
  auto session = MakeDurableSession(dir);
  auto report = session->RunExperimentFabric(SweepRequests(false),
                                             KeaSession::FabricRoundOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(session->Simulate(12).ok());

  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ((*resumed)->now(), session->now());
  EXPECT_EQ(ClusterSignature(**resumed), ClusterSignature(*session));
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());

  // The twins diverge from identical state: both simulate on bit-identically,
  // and the resumed twin's next fabric run journals under fresh keys.
  ASSERT_TRUE(session->Simulate(24).ok());
  ASSERT_TRUE((*resumed)->Simulate(24).ok());
  EXPECT_EQ((*resumed)->store().ToCsv(), session->store().ToCsv());
  auto next = (*resumed)->RunExperimentFabric(SweepRequests(false),
                                              KeaSession::FabricRoundOptions());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_TRUE((*resumed)->ledger()->Has("fab/1/finished"));
}

}  // namespace
}  // namespace kea::apps
