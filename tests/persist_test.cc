// The persisted layouts: one golden encoding per public persisted type (a
// layout change without a checkpoint format bump fails here), every
// truncation and bit flip of those encodings, the archive's refusals, and a
// durable session whose checkpoint survives Resume byte for byte.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "apps/session.h"
#include "common/snapshot.h"
#include "core/deployment.h"
#include "core/experiment_fabric.h"
#include "core/flighting.h"
#include "core/guardrailed_rollout.h"
#include "core/model_health.h"
#include "ml/stats.h"
#include "sim/cluster.h"
#include "sim/fault_injector.h"
#include "sim/fleet_fault_injector.h"
#include "sim/sku.h"
#include "telemetry/drift_detector.h"
#include "telemetry/ingestion.h"
#include "telemetry/store.h"

namespace kea {
namespace {

std::string Hex(const std::string& blob) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : blob) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

std::string Unhex(const std::string& hex) {
  std::string blob;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    blob += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  }
  return blob;
}

// ---- Golden values, built through public APIs only.

core::GuardrailEvaluation GoldenEvaluation() {
  core::GuardrailEvaluation e;
  e.baseline_latency_s = 1.5;
  e.observed_latency_s = 1.75;
  e.baseline_queue_p99_ms = 10.25;
  e.observed_queue_p99_ms = 12.5;
  e.baseline_utilization = 0.5;
  e.observed_utilization = 0.625;
  e.latency_ok = true;
  e.queue_ok = false;
  e.utilization_ok = true;
  e.measurable = true;
  e.slo_checked = true;
  e.observed_slo_burn = 0.75;
  e.slo_ok = false;
  return e;
}

core::ExperimentFabric::FlightConclusion GoldenConclusion() {
  core::ExperimentFabric::FlightConclusion c;
  c.flight = 2;
  c.name = "golden";
  c.admitted = true;
  c.rejected = core::InterferenceReason::kSharedRack;
  c.deferrals = 3;
  c.start_hour = 100;
  c.end_hour = 112;
  c.racks = {4};
  c.arms.resize(2);
  c.arms[0].machines = {1, 3};
  c.arms[1].machines = {2, 4};
  c.arms[0].hours = 12;
  c.arms[1].hours = 12;
  c.arms[1].data_read = {"data_read_mb", 10.0, 11.0, 0.1, 2.5, 0.02, true};
  c.arms[1].task_latency.metric = "avg_task_latency_s";
  c.arms[1].data_read_ci_low = 0.05;
  c.arms[1].data_read_ci_high = 0.15;
  c.tripped = true;
  c.tripped_window = 1;
  c.tripped_arm = 1;
  c.trip_eval = GoldenEvaluation();
  c.down_hours = 7;
  c.machines_restored = 2;
  return c;
}

std::vector<core::AppliedChange> GoldenBatch() {
  return {{{1, 2}, 10, 11, false}, {{0, 3}, 8, 7, true}};
}

core::ConfigPatch GoldenPatch() {
  core::ConfigPatch patch;
  patch.max_containers = 24;
  patch.feature_enabled = true;
  return patch;
}

telemetry::MachineHourRecord GoldenRecord(int machine, int hour, double load) {
  telemetry::MachineHourRecord r;
  r.machine_id = machine;
  r.hour = hour;
  r.rack = machine / 2;
  r.sku = 3;
  r.sc = machine % 2;
  r.avg_running_containers = 8.0 * load;
  r.cpu_utilization = 0.5 * load;
  r.tasks_finished = 120.0 * load;
  r.data_read_mb = 2048.5 * load;
  r.avg_task_latency_s = 3.25;
  r.cpu_time_core_s = 900.0 * load;
  r.queued_containers = 2.0;
  r.queue_latency_ms = 15.5 * load;
  r.rejected_containers = 0.0;
  r.cores_used = 6.0 * load;
  r.ssd_used_gb = 120.0;
  r.ram_used_gb = 64.0 * load;
  r.network_used_mbps = 250.0 * load;
  r.power_watts = 310.0;
  return r;
}

/// Three machines over four hours; machine 2 repeats one payload (a stuck
/// counter), and one record is non-finite.
std::vector<telemetry::MachineHourRecord> GoldenRecords() {
  std::vector<telemetry::MachineHourRecord> records;
  for (int hour = 0; hour < 4; ++hour) {
    for (int machine = 0; machine < 3; ++machine) {
      const double load = machine == 2 ? 1.0 : 0.5 + 0.125 * hour + 0.0625 * machine;
      records.push_back(GoldenRecord(machine, hour, load));
    }
  }
  records[4].cpu_utilization = std::numeric_limits<double>::quiet_NaN();
  return records;
}

core::ModelHealth GoldenModelHealth() {
  core::ModelHealth health;
  health.Trip("drift: task_latency", 120);
  health.BeginRefit();
  health.CompleteRefit(false, 150);
  health.NoteRound();
  return health;
}

ml::PageHinkleyDetector GoldenPageHinkley() {
  ml::PageHinkleyDetector detector;
  for (double x : {1.0, 2.0, 1.5, 10.0}) detector.Observe(x);
  return detector;
}

telemetry::DriftDetector::Options GoldenDriftOptions() {
  telemetry::DriftDetector::Options options;
  options.seasonal_period_hours = 3;
  options.staleness_hours = 2;
  return options;
}

telemetry::DriftDetector GoldenDriftDetector() {
  telemetry::TelemetryStore store;
  for (const auto& r : GoldenRecords()) {
    if (r.machine_id != 1 || r.hour != 1) store.Append(r);
  }
  telemetry::DriftDetector detector(GoldenDriftOptions());
  detector.CatchUp(store);
  detector.CheckStaleness(8);
  return detector;
}

sim::FaultProfile GoldenFaultProfile() {
  sim::FaultProfile profile;
  profile.stuck_machine_fraction = 0.5;
  profile.late_rate = 0.6;
  profile.max_late_hours = 8;
  profile.duplicate_rate = 0.2;
  profile.transient_error_rate = 0.5;
  return profile;
}

sim::TelemetryFaultInjector GoldenTelemetryFaults() {
  sim::TelemetryFaultInjector injector(GoldenFaultProfile(), 11);
  (void)injector.Corrupt(GoldenRecords());
  telemetry::WriteHook hook = injector.MakeWriteHook();
  for (int attempt = 0; attempt < 3; ++attempt) {
    (void)hook(GoldenRecord(0, 0, 1.0), attempt);
  }
  return injector;
}

const sim::Cluster& GoldenCluster() {
  static const sim::Cluster cluster = [] {
    sim::ClusterSpec spec = sim::ClusterSpec::Default();
    spec.total_machines = 8;
    spec.machines_per_rack = 4;
    return std::move(sim::Cluster::Build(sim::SkuCatalog::Default(), spec))
        .value();
  }();
  return cluster;
}

sim::FleetFaultProfile GoldenFleetProfile() {
  sim::FleetFaultProfile profile;
  profile.crash_rate_per_hour = 0.2;
  profile.rack_outage_rate_per_hour = 0.1;
  profile.degrade_rate_per_hour = 0.2;
  profile.permanent_loss_rate_per_hour = 0.05;
  return profile;
}

sim::FleetFaultInjector GoldenFleetFaults() {
  sim::FleetFaultInjector injector(&GoldenCluster(), GoldenFleetProfile(), 5);
  for (int hour = 0; hour < 6; ++hour) injector.BeginHour(hour);
  return injector;
}

telemetry::IngestionPipeline::Options GoldenPipelineOptions() {
  telemetry::IngestionPipeline::Options options;
  options.stuck_run_threshold = 2;
  options.max_lateness_hours = 2;
  return options;
}

/// Ingests the golden records, then the first two again (duplicates) and an
/// hour-0 record after hour 3 (late), into `sink`.
telemetry::IngestionPipeline GoldenPipeline(telemetry::TelemetryStore* sink) {
  telemetry::IngestionPipeline pipeline(sink, GoldenPipelineOptions());
  std::vector<telemetry::MachineHourRecord> records = GoldenRecords();
  records.push_back(records[0]);
  records.push_back(records[1]);
  (void)pipeline.Ingest(records);
  return pipeline;
}

// ---- Their encodings at checkpoint format 1. A layout change bumps
// KeaSession::kCheckpointFormat and re-records these. All but the ingestion
// pipeline's are the bytes of the layout before the format number existed.

constexpr char kGuardrailEvaluationHex[] =
    "000000000000f83f000000000000fc3f00000000008024400000000000002940"
    "000000000000e03f000000000000e43f01000000000000000100000001000000"
    "01000000000000000000e83f00000000";

constexpr char kFlightConclusionHex[] =
    "020000000000000006000000676f6c64656e0100000002000000000000000300"
    "0000000000006400000000000000700000000000000001000000000000000400"
    "0000000000000200000000000000020000000000000001000000000000000300"
    "0000000000000c00000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000f03f000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000f03f00000000000000000000000000000000000000000200"
    "000000000000020000000000000004000000000000000c000000000000000c00"
    "0000646174615f726561645f6d62000000000000244000000000000026409a99"
    "99999999b93f00000000000004407b14ae47e17a943f01000000120000006176"
    "675f7461736b5f6c6174656e63795f7300000000000000000000000000000000"
    "00000000000000000000000000000000000000000000f03f000000009a999999"
    "9999a93f333333333333c33f0100000001000000000000000100000000000000"
    "50000000000000000000f83f000000000000fc3f000000000080244000000000"
    "00002940000000000000e03f000000000000e43f010000000000000001000000"
    "0100000001000000000000000000e83f00000000000000000700000000000000"
    "0200000000000000";

constexpr char kChangeBatchHex[] =
    "0200000000000000010000000000000002000000000000000a00000000000000"
    "0b00000000000000000000000000000000000000030000000000000008000000"
    "00000000070000000000000001000000";

constexpr char kConfigPatchHex[] =
    "0100000018000000000000000000000000000000000000000100000001000000"
    "000000000000000000000000";

constexpr char kMachineHourRecordHex[] =
    "0500000000000000aa0000000000000002000000000000000300000000000000"
    "01000000000000000000000000002040000000000000e03f0000000000005e40"
    "000000000001a0400000000000000a400000000000208c400000000000000040"
    "0000000000002f40000000000000000000000000000018400000000000005e40"
    "00000000000050400000000000406f400000000000607340";

constexpr char kModelHealthHex[] =
    "010000001300000064726966743a207461736b5f6c6174656e63797800000000"
    "000000ae00000000000000000000000000000000000000000000000000000000"
    "0000000100000000000000000000000000000001000000000000000100000000"
    "000000";

constexpr char kPageHinkleyDetectorHex[] =
    "04000000000000000000000000000d400000000000584b409ae051742834f33f"
    "000000000000d0bf4df0283a149a09404df0283a149a094000000000";

constexpr char kDriftDetectorHex[] =
    "0b00000000000000020000000000000003000000000000000100000001000000"
    "010000000000000000000000000000003c000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000003000000000000000000000000000840"
    "0100000000000000000000400100000000000000000008400100000000000000"
    "000000003c000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000300000000000000000000000000d63f01000000000000000000da3f"
    "01000000555555555555db3f0100000000000000000000003c00000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000300000000000000"
    "0000000000000a40010000000000000000000a40010000000000000000000a40"
    "0100000000000000000000003c00000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000300000000000000000000000050254001000000"
    "000000000030294001000000abaaaaaaaa7a2a40010000000000000000000000"
    "3c00000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "03000000000000000000000000a0544001000000000000000060584001000000"
    "0000000000a05940010000000100000000000000030000000000000003000000"
    "000000000300000000000000000000000080f63f000000000080234000000000"
    "00cc45400000000000187540";

constexpr char kTelemetryFaultInjectorHex[] =
    "0c00000000000000000000000000000005000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000600000000000000"
    "0200000000000000000000000000000004000000000000000400000000000000"
    "0100000000000000000000000000000001000000000000000000000000000000"
    "030000000000000000000000000000000000000000001440000000000000d43f"
    "0000000000c0524000000000400194400000000000000a400000000000948140"
    "0000000000000040000000000060234000000000000000000000000000000e40"
    "0000000000005e40000000000000444000000000008863400000000000607340"
    "0600000000000000020000000000000001000000000000000000000000000000"
    "0000000000000000030000000000000001000000000000000000000000001240"
    "000000000000d23f0000000000e0504000000000200192400000000000000a40"
    "0000000000a47f40000000000000004000000000007021400000000000000000"
    "0000000000000b400000000000005e4000000000000042400000000000946140"
    "0000000000607340020000000000000001000000000000000100000000000000"
    "030000000000000000000000000000000000000000002040000000000000e03f"
    "0000000000005e40000000000001a0400000000000000a400000000000208c40"
    "00000000000000400000000000002f4000000000000000000000000000001840"
    "0000000000005e4000000000000050400000000000406f400000000000607340"
    "0800000000000000020000000000000000000000000000000300000000000000"
    "0000000000000000030000000000000000000000000000000000000000001c40"
    "000000000000dc3f0000000000405a4000000000c0019c400000000000000a40"
    "00000000009c884000000000000000400000000000202b400000000000000000"
    "00000000000015400000000000005e400000000000004c400000000000586b40"
    "0000000000607340000000000000000003000000000000000000000000000000"
    "030000000000000000000000000000000000000000001c40000000000000dc3f"
    "0000000000405a4000000000c0019c400000000000000a4000000000009c8840"
    "00000000000000400000000000202b4000000000000000000000000000001540"
    "0000000000005e400000000000004c400000000000586b400000000000607340"
    "0900000000000000010000000000000001000000000000000200000000000000"
    "0000000000000000030000000000000001000000000000000000000000001a40"
    "000000000000da3f000000000060584000000000a0019a400000000000000a40"
    "0000000000da8640000000000000004000000000003029400000000000000000"
    "00000000008013400000000000005e400000000000004a400000000000646940"
    "000000000060734003000000000000000100000000000000";

constexpr char kFleetFaultInjectorHex[] =
    "0500000000000000080000000000000009000000000000000b00000000000000"
    "07000000000000002c000000000000001b000000000000000a00000000000000"
    "0000000000000000000000000000000004000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000800000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0800000000000000a2ff9b6862c1e23f163dccd672cce03f000000000000f03f"
    "23f0d8310437e73f000000000000f03ffc92e410ee1dec3f000000000000f03f"
    "52feabcbb0abea3f060000000000000000000000000000000500000000000000"
    "0000000000000000000000000000000019000000000000000800000000000000"
    "0500000000000000060000000000000003000000000000000100000000000000"
    "0500000000000000050000000000000000000000000000000000000000000000";

// Format 1 stores each tracked machine's 14 metric words where the layout
// before it stored their FNV-1a signature: 104 more bytes per machine.
constexpr char kIngestionPipelineHex[] =
    "0e00000000000000090000000000000005000000000000000100000000000000"
    "0000000000000000000000000000000000000000000000000200000000000000"
    "0200000000000000000000000000000000000000000000000500000000000000"
    "0100000000000000010000000000000000000000000000000300000000000000"
    "01000000000000000000000000001640000000000000f87f0000000000a05440"
    "00000000600196400000000000000a4000000000005683400000000000000040"
    "0000000000502540000000000000000000000000008010400000000000005e40"
    "000000000000464000000000007c654000000000006073400000000000000000"
    "0100000000000000020000000000000002000000000000000100000000000000"
    "030000000000000000000000000000000000000000002040000000000000e03f"
    "0000000000005e40000000000001a0400000000000000a400000000000208c40"
    "00000000000000400000000000002f4000000000000000000000000000001840"
    "0000000000005e4000000000000050400000000000406f400000000000607340"
    "0500000000000000020000000000000002000000000000000300000000000000"
    "0100000000000000030000000000000000000000000000000000000000002040"
    "000000000000e03f0000000000005e40000000000001a0400000000000000a40"
    "0000000000208c4000000000000000400000000000002f400000000000000000"
    "00000000000018400000000000005e4000000000000050400000000000406f40"
    "0000000000607340050000000000000003000000000000000000000000000000"
    "0000000000000000000000000000000003000000000000000000000000000000"
    "0000000000001040000000000000d03f0000000000004e400000000000019040"
    "0000000000000a400000000000207c4000000000000000400000000000001f40"
    "000000000000000000000000000008400000000000005e400000000000004040"
    "0000000000405f40000000000060734004000000000000000300000000000000"
    "0100000000000000000000000000000000000000000000000300000000000000"
    "01000000000000000000000000001240000000000000d23f0000000000e05040"
    "00000000200192400000000000000a400000000000a47f400000000000000040"
    "000000000070214000000000000000000000000000000b400000000000005e40"
    "0000000000004240000000000094614000000000006073400400000000000000"
    "0300000000000000090000000000000000000000000000000100000000000000"
    "0200000000000000030000000000000000000000010000000200000001000000"
    "0300000001000000000000000200000001000000020000000300000000000000"
    "030000000000000000000000000000000000000000001c40000000000000dc3f"
    "0000000000405a4000000000c0019c400000000000000a4000000000009c8840"
    "00000000000000400000000000202b4000000000000000000000000000001540"
    "0000000000005e400000000000004c400000000000586b400000000000607340"
    "010000000000000001000000000000000000000000001e40000000000000de3f"
    "0000000000205c4000000000e0019e400000000000000a4000000000005e8a40"
    "00000000000000400000000000102d4000000000000000000000000000801640"
    "0000000000005e400000000000004e4000000000004c6d400000000000607340"
    "010000000000000002000000000000000000000000002040000000000000e03f"
    "0000000000005e40000000000001a0400000000000000a400000000000208c40"
    "00000000000000400000000000002f4000000000000000000000000000001840"
    "0000000000005e4000000000000050400000000000406f400000000000607340"
    "0400000000000000090000000000000009000000000000000000000000000000"
    "00000000000000000000000000000000";

TEST(PersistTest, GoldenLayouts) {
  EXPECT_EQ(Hex(Encode(GoldenEvaluation())), kGuardrailEvaluationHex);
  EXPECT_EQ(Hex(Encode(GoldenConclusion())), kFlightConclusionHex);
  EXPECT_EQ(Hex(Encode(GoldenBatch())), kChangeBatchHex);
  EXPECT_EQ(Hex(Encode(GoldenPatch())), kConfigPatchHex);
  EXPECT_EQ(Hex(Encode(GoldenRecord(5, 170, 1.0))), kMachineHourRecordHex);
  EXPECT_EQ(Hex(GoldenModelHealth().SerializeState()), kModelHealthHex);
  EXPECT_EQ(Hex(GoldenPageHinkley().SerializeState()), kPageHinkleyDetectorHex);
  EXPECT_EQ(Hex(GoldenDriftDetector().SerializeState()), kDriftDetectorHex);
  EXPECT_EQ(Hex(GoldenTelemetryFaults().SerializeState()),
            kTelemetryFaultInjectorHex);
  EXPECT_EQ(Hex(GoldenFleetFaults().SerializeState()), kFleetFaultInjectorHex);
  telemetry::TelemetryStore sink;
  EXPECT_EQ(Hex(GoldenPipeline(&sink).SerializeState()), kIngestionPipelineHex);
}

/// Every truncation of `blob` is refused and leaves `target` as it was;
/// every single-bit flip returns a Status; the whole blob restores and
/// re-encodes to itself.
template <typename T, typename Restore, typename State>
void SweepMutations(const std::string& blob, T target, Restore restore,
                    State state) {
  const std::string before = state(target);
  size_t accepted = 0, changed = 0;
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    if (restore(&target, blob.substr(0, cut)).ok()) ++accepted;
    if (state(target) != before) ++changed;
  }
  EXPECT_EQ(accepted, 0u) << "truncations restored";
  EXPECT_EQ(changed, 0u) << "refused truncations changed the target";
  for (size_t bit = 0; bit < 8 * blob.size(); ++bit) {
    std::string flipped = blob;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    T copy = target;
    (void)restore(&copy, flipped);
  }
  ASSERT_TRUE(restore(&target, blob).ok());
  EXPECT_EQ(Hex(state(target)), Hex(blob));
}

template <typename T>
void SweepValue(const char* hex, T target) {
  SweepMutations(
      Unhex(hex), std::move(target),
      [](T* t, const std::string& b) { return Decode(b, t); },
      [](const T& t) { return Encode(t); });
}

template <typename T>
void SweepState(const char* hex, T target) {
  SweepMutations(
      Unhex(hex), std::move(target),
      [](T* t, const std::string& b) { return t->RestoreState(b); },
      [](const T& t) { return t.SerializeState(); });
}

TEST(PersistTest, MutatedGoldenBlobsAreRefusedWhole) {
  {
    SCOPED_TRACE("GuardrailEvaluation");
    SweepValue(kGuardrailEvaluationHex, core::GuardrailEvaluation());
  }
  {
    SCOPED_TRACE("FlightConclusion");
    SweepValue(kFlightConclusionHex, core::ExperimentFabric::FlightConclusion());
  }
  {
    SCOPED_TRACE("ChangeBatch");
    SweepValue(kChangeBatchHex, std::vector<core::AppliedChange>());
  }
  {
    SCOPED_TRACE("ConfigPatch");
    SweepValue(kConfigPatchHex, core::ConfigPatch());
  }
  {
    SCOPED_TRACE("MachineHourRecord");
    SweepValue(kMachineHourRecordHex, telemetry::MachineHourRecord());
  }
  {
    SCOPED_TRACE("ModelHealth");
    SweepState(kModelHealthHex, core::ModelHealth());
  }
  {
    SCOPED_TRACE("PageHinkleyDetector");
    SweepState(kPageHinkleyDetectorHex, ml::PageHinkleyDetector());
  }
  {
    SCOPED_TRACE("DriftDetector");
    SweepState(kDriftDetectorHex, telemetry::DriftDetector(GoldenDriftOptions()));
  }
  {
    SCOPED_TRACE("TelemetryFaultInjector");
    SweepState(kTelemetryFaultInjectorHex,
               sim::TelemetryFaultInjector(GoldenFaultProfile(), 11));
  }
  {
    SCOPED_TRACE("FleetFaultInjector");
    SweepState(kFleetFaultInjectorHex,
               sim::FleetFaultInjector(&GoldenCluster(), GoldenFleetProfile(), 5));
  }
  {
    SCOPED_TRACE("IngestionPipeline");
    telemetry::TelemetryStore sink;
    SweepState(kIngestionPipelineHex,
               telemetry::IngestionPipeline(&sink, GoldenPipelineOptions()));
  }
}

TEST(PersistTest, ReaderRefusesAnIntOutsideIntsRange) {
  const int64_t wide = (int64_t{1} << 33) + 5;
  const std::string blob = Encode(wide);
  int narrow = 7;
  EXPECT_EQ(Decode(blob, &narrow).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(narrow, 7);
  int64_t back = 0;
  ASSERT_TRUE(Decode(blob, &back).ok());
  EXPECT_EQ(back, wide);
  const int64_t edges[] = {std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max()};
  for (int64_t edge : edges) {
    ASSERT_TRUE(Decode(Encode(edge), &narrow).ok());
    EXPECT_EQ(narrow, edge);
  }
}

TEST(PersistTest, ReaderRefusesACountTheBlobCannotHold) {
  // A batch that declares 2^62 changes: refused before anything is
  // allocated for them, and the target keeps its value.
  std::string blob = Encode(uint64_t{1} << 62);
  blob += Encode(GoldenBatch()).substr(sizeof(uint64_t));
  std::vector<core::AppliedChange> batch = GoldenBatch();
  EXPECT_EQ(Decode(blob, &batch).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Encode(batch), Encode(GoldenBatch()));
  // Fixed-width elements are held to their exact width: one record more
  // than the bytes hold is refused.
  std::vector<telemetry::MachineHourRecord> records = {GoldenRecord(1, 2, 1.0)};
  std::string one = Encode(records);
  std::string overclaimed = Encode(uint64_t{2}) + one.substr(sizeof(uint64_t)) +
                            std::string(telemetry::kMachineHourRecordBytes - 1, '\0');
  EXPECT_EQ(Decode(overclaimed, &records).code(), StatusCode::kInvalidArgument);
  ASSERT_EQ(records.size(), 1u);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Resume followed by Checkpoint rewrites checkpoint.kea byte for byte: every
// section decodes to exactly the state that encoded it.
TEST(PersistTest, ResumeThenCheckpointRewritesTheSameBytes) {
  using apps::KeaSession;
  const std::string dir = testing::TempDir() + "/persist_round_trip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string written;
  {
    KeaSession::Config config;
    config.machines = 60;
    config.seed = 11;
    auto session = std::move(KeaSession::Create(config)).value();
    KeaSession::IngestionConfig ingestion;
    ingestion.faults = sim::FaultProfile::Moderate();
    ingestion.pipeline.stuck_run_threshold = 3;
    ASSERT_TRUE(session->EnableIngestionPipeline(ingestion).ok());
    KeaSession::FleetChaosConfig chaos;
    chaos.profile = sim::FleetFaultProfile::CrashStorm();
    ASSERT_TRUE(session->EnableFleetChaos(chaos).ok());
    ASSERT_TRUE(session->EnableSelfHealing(KeaSession::SelfHealingConfig()).ok());
    ASSERT_TRUE(session->EnableDurability(dir).ok());
    ASSERT_TRUE(session->Simulate(72).ok());

    KeaSession::GuardedRoundOptions guarded;
    guarded.lookback_hours = 48;
    guarded.rollout.wave_fractions = {0.5, 1.0};
    guarded.rollout.observe_hours_per_wave = 6;
    guarded.rollout.baseline_hours = 12;
    auto round = session->RunGuardedTuningRound(guarded);
    ASSERT_TRUE(round.ok()) << round.status();
    ASSERT_TRUE(session->Simulate(6).ok());

    core::FlightRequest flight;
    flight.name = "feature";
    flight.sku = session->cluster().machines().front().sku;
    flight.arms.resize(2);
    flight.arms[1].feature_enabled = true;
    flight.machines_per_arm = 2;
    flight.window_hours = 6;
    flight.num_windows = 2;
    flight.guardrails.max_latency_ratio = 100.0;
    flight.guardrails.max_queue_p99_ratio = 100.0;
    flight.guardrails.max_utilization = 1.0;
    auto fabric = session->RunExperimentFabric({flight},
                                               KeaSession::FabricRoundOptions());
    ASSERT_TRUE(fabric.ok()) << fabric.status();
    EXPECT_EQ(fabric->admitted, 1u);

    auto yarn = session->RunYarnTuningRound(apps::YarnConfigTuner::Options(), 48, 1);
    ASSERT_TRUE(yarn.ok()) << yarn.status();
    ASSERT_TRUE(session->RollbackLastDeployment().ok());
    ASSERT_TRUE(session->Simulate(6).ok());
    ASSERT_TRUE(session->Checkpoint().ok());
    written = ReadBytes(dir + "/checkpoint.kea");
  }
  auto resumed = KeaSession::Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_TRUE((*resumed)->Checkpoint().ok());
  const std::string rewritten = ReadBytes(dir + "/checkpoint.kea");
  EXPECT_GT(written.size(), 0u);
  EXPECT_TRUE(rewritten == written)
      << written.size() << " B written, " << rewritten.size() << " B rewritten";
}

}  // namespace
}  // namespace kea
