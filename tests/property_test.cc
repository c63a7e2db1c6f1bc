// Cross-cutting property sweeps: conservation and monotonicity invariants
// that must hold for every configuration, exercised with TEST_P grids.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "obs/trace.h"
#include "sim/fluid_engine.h"

namespace kea::sim {
namespace {

// ---------------------------------------------------------------------------
// Work conservation: at every demand level, the cluster runs
// min(demand, capacity) containers (within noise), and demand beyond
// capacity shows up as queued + rejected, never vanishing.
class ConservationTest : public ::testing::TestWithParam<double> {};

TEST_P(ConservationTest, DemandIsConservedAcrossLoadLevels) {
  double demand_fraction = GetParam();
  PerfModel model = PerfModel::CreateDefault();
  WorkloadSpec wspec = WorkloadSpec::Default();
  wspec.base_demand_fraction = demand_fraction;
  wspec.diurnal_amplitude = 0.0;
  wspec.demand_noise_sigma = 0.0;
  wspec.weekend_factor = 1.0;
  auto workload = WorkloadModel::Create(wspec);
  ASSERT_TRUE(workload.ok());

  ClusterSpec cspec = ClusterSpec::Default();
  cspec.total_machines = 400;
  auto cluster = Cluster::Build(model.catalog(), cspec);
  ASSERT_TRUE(cluster.ok());
  double capacity = static_cast<double>(cluster->TotalContainerSlots());

  FluidEngine engine(&model, &cluster.value(), &workload.value(),
                     FluidEngine::Options());
  telemetry::TelemetryStore store;
  ASSERT_TRUE(engine.Run(0, 8, &store).ok());

  // Per hour: running + queued + rejected ~ demand.
  std::map<HourIndex, double> accounted;
  for (const auto& r : store.records()) {
    accounted[r.hour] +=
        r.avg_running_containers + r.queued_containers + r.rejected_containers;
  }
  double demand = demand_fraction * capacity;
  for (const auto& [hour, total] : accounted) {
    EXPECT_NEAR(total, demand, demand * 0.03) << "hour " << hour;
  }

  // Running never exceeds capacity.
  std::map<HourIndex, double> running;
  for (const auto& r : store.records()) running[r.hour] += r.avg_running_containers;
  for (const auto& [hour, total] : running) {
    EXPECT_LE(total, capacity * 1.001) << "hour " << hour;
  }
}

INSTANTIATE_TEST_SUITE_P(DemandLevels, ConservationTest,
                         ::testing::Values(0.5, 0.8, 0.95, 1.1, 1.4));

// ---------------------------------------------------------------------------
// Power draw is monotone in utilization and respects the cap, for every SKU
// and cap depth.
class PowerMonotoneTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PowerMonotoneTest, DrawMonotoneAndCapped) {
  auto [sku, cap] = GetParam();
  PerfModel model = PerfModel::CreateDefault();
  double prev = -1.0;
  for (double util = 0.0; util <= 1.0 + 1e-9; util += 0.05) {
    for (bool feature : {false, true}) {
      double watts = model.PowerWatts(sku, util, cap, feature);
      EXPECT_LE(watts, model.CapWatts(sku, cap) + 1e-9);
      EXPECT_GE(watts, model.catalog().spec(sku).idle_watts - 1e-9);
    }
    double watts_off = model.PowerWatts(sku, util, cap, false);
    EXPECT_GE(watts_off, prev - 1e-9) << "util " << util;
    prev = watts_off;
  }
}

INSTANTIATE_TEST_SUITE_P(SkuCapGrid, PowerMonotoneTest,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Values(0.05, 0.15, 0.30)));

// ---------------------------------------------------------------------------
// Throttling never speeds a machine up, and the Feature never hurts, over
// the whole (sku, util, cap) grid.
class ThrottlePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ThrottlePropertyTest, ThrottleBoundsAndFeatureDominance) {
  auto [sku, cap_index] = GetParam();
  const double caps[] = {0.0, 0.1, 0.2, 0.3};
  double cap = caps[cap_index];
  PerfModel model = PerfModel::CreateDefault();
  for (double util = 0.05; util <= 1.0; util += 0.05) {
    double off = model.ThrottleFactor(sku, util, cap, false);
    double on = model.ThrottleFactor(sku, util, cap, true);
    EXPECT_LE(off, 1.0 + 1e-12);
    EXPECT_GT(off, 0.2);
    EXPECT_GE(on, off - 1e-12) << "feature must not throttle harder";

    MachineGroupKey group{0, sku};
    double containers = util * model.catalog().spec(sku).cores /
                        model.params().cores_per_container;
    double latency_off =
        model.TaskLatencySeconds(group, util, containers, cap, false);
    double latency_on =
        model.TaskLatencySeconds(group, util, containers, cap, true);
    EXPECT_LT(latency_on, latency_off) << "sku " << sku << " util " << util;
  }
}

INSTANTIATE_TEST_SUITE_P(SkuCapGrid, ThrottlePropertyTest,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 4)));

// ---------------------------------------------------------------------------
// Seasonal demand is strictly positive and weekly-periodic for a grid of
// spec shapes.
class SeasonalityTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SeasonalityTest, PositiveAndPeriodic) {
  auto [amplitude, weekend] = GetParam();
  WorkloadSpec spec = WorkloadSpec::Default();
  spec.diurnal_amplitude = amplitude;
  spec.weekend_factor = weekend;
  auto model = WorkloadModel::Create(spec);
  ASSERT_TRUE(model.ok());
  for (HourIndex h = 0; h < kHoursPerWeek; ++h) {
    double f = model->SeasonalDemandFraction(h);
    EXPECT_GT(f, 0.0) << h;
    EXPECT_DOUBLE_EQ(f, model->SeasonalDemandFraction(h + kHoursPerWeek)) << h;
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, SeasonalityTest,
                         ::testing::Combine(::testing::Values(0.0, 0.16, 0.5),
                                            ::testing::Values(0.6, 0.86, 1.0)));

}  // namespace
}  // namespace kea::sim

// ---------------------------------------------------------------------------
// Telemetry CSV durability properties: a randomized store round-trips
// bit-exactly through ToCsv/FromCsv, and truncating the CSV at ANY byte
// offset either fails cleanly or yields a strict row-prefix — never a crash,
// never a fabricated value.

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "telemetry/store.h"

namespace kea::telemetry {
namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

std::vector<double*> DoubleFields(MachineHourRecord* r) {
  return {&r->avg_running_containers, &r->cpu_utilization, &r->tasks_finished,
          &r->data_read_mb,           &r->avg_task_latency_s,
          &r->cpu_time_core_s,        &r->queued_containers,
          &r->queue_latency_ms,       &r->rejected_containers,
          &r->cores_used,             &r->ssd_used_gb,
          &r->ram_used_gb,            &r->network_used_mbps,
          &r->power_watts};
}

TelemetryStore RandomStore(uint64_t seed, int records) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::uniform_int_distribution<int> small(0, 4096);
  TelemetryStore store;
  for (int i = 0; i < records; ++i) {
    MachineHourRecord r;
    r.machine_id = small(rng);
    r.hour = small(rng);
    r.rack = small(rng);
    r.sku = small(rng) % 8;
    r.sc = small(rng) % 4;
    int field = 0;
    for (double* v : DoubleFields(&r)) {
      switch ((i + field++) % 5) {
        case 0: *v = std::ldexp(mantissa(rng), exponent(rng)); break;
        case 1: *v = mantissa(rng); break;
        case 2: *v = 0.0; break;
        case 3: *v = -0.0; break;
        default: *v = static_cast<double>(small(rng)); break;
      }
    }
    store.Append(r);
  }
  return store;
}

void ExpectBitIdentical(const MachineHourRecord& a, MachineHourRecord b,
                        size_t index) {
  MachineHourRecord a_copy = a;
  EXPECT_EQ(a.machine_id, b.machine_id) << index;
  EXPECT_EQ(a.hour, b.hour) << index;
  EXPECT_EQ(a.rack, b.rack) << index;
  EXPECT_EQ(a.sku, b.sku) << index;
  EXPECT_EQ(a.sc, b.sc) << index;
  auto a_fields = DoubleFields(&a_copy);
  auto b_fields = DoubleFields(&b);
  for (size_t f = 0; f < a_fields.size(); ++f) {
    EXPECT_EQ(DoubleBits(*a_fields[f]), DoubleBits(*b_fields[f]))
        << "record " << index << " double field " << f;
  }
}

class TelemetryCsvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TelemetryCsvPropertyTest, RandomStoreRoundTripsBitExactly) {
  TelemetryStore store = RandomStore(GetParam(), 64);
  const std::string csv = store.ToCsv();
  auto parsed = TelemetryStore::FromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    ExpectBitIdentical(store.records()[i], parsed->records()[i], i);
  }
  // Print -> parse -> print is a fixed point.
  EXPECT_EQ(parsed->ToCsv(), csv);
}

TEST_P(TelemetryCsvPropertyTest, TruncationAtAnyOffsetNeverFabricates) {
  TelemetryStore store = RandomStore(GetParam() ^ 0x9e3779b9, 24);
  const std::string csv = store.ToCsv();
  for (size_t cut = 0; cut < csv.size(); ++cut) {
    auto parsed = TelemetryStore::FromCsv(csv.substr(0, cut));
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << "cut at byte " << cut;
      continue;
    }
    // Only a cut on a line boundary may parse, and then only to a strict
    // prefix of the original records, each bit-identical — a truncated
    // "280.5" must never come back as 280.
    ASSERT_GT(cut, 0u);
    EXPECT_EQ(csv[cut - 1], '\n') << "cut at byte " << cut;
    ASSERT_LT(parsed->size(), store.size()) << "cut at byte " << cut;
    for (size_t i = 0; i < parsed->size(); ++i) {
      ExpectBitIdentical(store.records()[i], parsed->records()[i], i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, TelemetryCsvPropertyTest,
                         ::testing::Values(1u, 7u, 1234u));

// ---------------------------------------------------------------------------
// The binary checkpoint codec (SerializeState/RestoreState): the same round
// trip, plus the values CSV cannot carry, the hour index rebuilt on restore,
// and every malformed blob refused whole.

double FromBits(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

class TelemetryStatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TelemetryStatePropertyTest, RandomStoreRoundTripsBitExactly) {
  TelemetryStore store = RandomStore(GetParam(), 64);
  const std::string blob = store.SerializeState();
  EXPECT_EQ(blob.size(),
            sizeof(uint64_t) + store.size() * kMachineHourRecordBytes);
  TelemetryStore restored;
  ASSERT_TRUE(restored.RestoreState(blob).ok());
  ASSERT_EQ(restored.size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    ExpectBitIdentical(store.records()[i], restored.records()[i], i);
  }
  EXPECT_EQ(restored.SerializeState(), blob);
}

TEST(TelemetryStateCodecTest, SpecialValuesRoundTripBitExactly) {
  const std::vector<double> specials = {
      FromBits(0x7ff8000000000001ULL),  // Quiet NaN with a payload.
      FromBits(0xfff80000deadbeefULL),  // Sign bit set, payload.
      FromBits(0xfff8000000000000ULL),  // Negative default NaN.
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      FromBits(0x000fffffffffffffULL),  // Largest subnormal.
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      0.0,
      -0.0,
  };
  const std::vector<int> ints = {std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max(), -1, 0};
  TelemetryStore store;
  for (size_t i = 0; i < specials.size() * ints.size(); ++i) {
    MachineHourRecord r;
    r.machine_id = ints[i % ints.size()];
    r.hour = ints[(i + 1) % ints.size()];
    r.rack = ints[(i + 2) % ints.size()];
    r.sku = ints[(i + 3) % ints.size()];
    r.sc = ints[i / specials.size() % ints.size()];
    size_t field = 0;
    for (double* v : DoubleFields(&r)) *v = specials[(i + field++) % specials.size()];
    store.Append(r);
  }
  TelemetryStore restored;
  ASSERT_TRUE(restored.RestoreState(store.SerializeState()).ok());
  ASSERT_EQ(restored.size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    ExpectBitIdentical(store.records()[i], restored.records()[i], i);
  }
}

TEST_P(TelemetryStatePropertyTest, RestoredHourIndexMatchesFullScan) {
  // Hours rise with the append order, and one record in four arrives late,
  // so the hour index skips real prefixes and late arrivals sit behind them.
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> lateness(1, 40);
  TelemetryStore store;
  std::vector<MachineHourRecord> source = RandomStore(GetParam(), 900).records();
  for (size_t i = 0; i < source.size(); ++i) {
    source[i].hour = static_cast<sim::HourIndex>(i / 4);
    if (rng() % 4 == 0) source[i].hour -= lateness(rng);
    store.Append(source[i]);
  }
  // The target held as many records at hours before every window: an index
  // left over from them would skip the restored records' real prefixes.
  TelemetryStore restored;
  for (MachineHourRecord r : source) {
    r.hour = -1000000;
    restored.Append(r);
  }
  ASSERT_TRUE(restored.RestoreState(store.SerializeState()).ok());
  ASSERT_EQ(restored.size(), store.size());

  std::uniform_int_distribution<int> hour(-60, 260);
  for (int w = 0; w < 300; ++w) {
    const sim::HourIndex begin = hour(rng);
    const sim::HourIndex end = hour(rng);  // Inverted windows included.
    std::vector<MachineHourRecord> expected;
    for (const MachineHourRecord& r : store.records()) {
      if (r.hour >= begin && r.hour < end) expected.push_back(r);
    }
    const std::vector<MachineHourRecord> got =
        restored.Query(HourRangeFilter(begin, end));
    ASSERT_EQ(got.size(), expected.size()) << "[" << begin << ", " << end << ")";
    for (size_t i = 0; i < got.size(); ++i) {
      ExpectBitIdentical(expected[i], got[i], i);
    }
  }
}

TEST_P(TelemetryStatePropertyTest, TruncatedOrPaddedBlobIsRefusedWhole) {
  TelemetryStore store = RandomStore(GetParam() ^ 0x9e3779b9, 12);
  const std::string blob = store.SerializeState();
  TelemetryStore target = RandomStore(GetParam() + 1, 5);
  const std::string before = target.SerializeState();
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    EXPECT_EQ(target.RestoreState(blob.substr(0, cut)).code(),
              StatusCode::kInvalidArgument)
        << "cut at byte " << cut;
  }
  EXPECT_EQ(target.RestoreState(blob + '\0').code(),
            StatusCode::kInvalidArgument);
  // A refused blob leaves the store as it was.
  EXPECT_EQ(target.SerializeState(), before);
}

TEST(TelemetryStateCodecTest, CountBeyondTheBlobIsRefusedBeforeReserving) {
  TelemetryStore store = RandomStore(3, 4);
  const std::string records = store.SerializeState().substr(sizeof(uint64_t));
  // A store that reserved `count` records first would throw or abort on the
  // larger counts instead of returning.
  for (uint64_t count : {uint64_t{5}, uint64_t{1} << 40,
                         std::numeric_limits<uint64_t>::max()}) {
    StateWriter w;
    w.PutU64(count);
    TelemetryStore target;
    EXPECT_EQ(target.RestoreState(w.Release() + records).code(),
              StatusCode::kInvalidArgument)
        << "count " << count;
    EXPECT_TRUE(target.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, TelemetryStatePropertyTest,
                         ::testing::Values(1u, 7u, 1234u));

}  // namespace
}  // namespace kea::telemetry

namespace kea::obs {
namespace {

// ---------------------------------------------------------------------------
// Trace well-formedness: for ANY randomly generated span tree — random
// depth, fan-out, names, annotations, across several threads — the exported
// Chrome trace JSON must validate: every B matched by an E, LIFO nesting per
// thread, non-decreasing timestamps, parents resolvable.

class TracePropertyTest : public ::testing::TestWithParam<uint64_t> {};

namespace trace_prop {

// Recursively opens a random span tree; returns spans opened.
size_t RandomTree(Rng* rng, int depth) {
  static const char* kNames[] = {"alpha", "beta", "gamma", "delta/nested",
                                 "epsilon \"quoted\""};
  const char* name = kNames[rng->UniformInt(0, 4)];
  size_t opened = 1;
  Annotations args;
  if (rng->UniformInt(0, 1) == 0) {
    args.push_back({"k", std::to_string(rng->UniformInt(0, 1 << 20))});
  }
  KEA_TRACE_SPAN(name, std::move(args));
  if (depth < 4) {
    int children = static_cast<int>(rng->UniformInt(0, 3));
    for (int c = 0; c < children; ++c) {
      opened += RandomTree(rng, depth + 1);
    }
  }
  return opened;
}

}  // namespace trace_prop

TEST_P(TracePropertyTest, RandomSpanTreesExportValidChromeTrace) {
#ifdef KEA_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
  Tracer::Get().Clear();
  EnableTracing();

  constexpr int kThreads = 4;
  const uint64_t seed = GetParam();
  std::array<size_t, kThreads> opened{};
  {
    KEA_TRACE_SPAN("property.root");
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([t, seed, &opened] {
        Rng rng(seed * 1000003ull + static_cast<uint64_t>(t));
        int trees = static_cast<int>(rng.UniformInt(1, 6));
        for (int i = 0; i < trees; ++i) {
          opened[static_cast<size_t>(t)] += trace_prop::RandomTree(&rng, 0);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  DisableTracing();

  size_t total_spans = 1;  // the root
  for (size_t n : opened) total_spans += n;

  const std::string json = Tracer::Get().ExportChromeTrace();
  TraceValidation v = ValidateChromeTrace(json);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.begins, total_spans);
  EXPECT_EQ(v.ends, total_spans);
  EXPECT_EQ(v.events, 2 * total_spans);
  EXPECT_GE(v.threads, static_cast<size_t>(kThreads));
  size_t by_name = 0;
  for (const auto& [name, count] : v.name_counts) by_name += count;
  EXPECT_EQ(by_name, total_spans);
  Tracer::Get().Clear();
}

INSTANTIATE_TEST_SUITE_P(SeedGrid, TracePropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace kea::obs
