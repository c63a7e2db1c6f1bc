#include "telemetry/ingestion.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "reference_ingestion.h"
#include "sim/fault_injector.h"
#include "sim/fluid_engine.h"

namespace kea::telemetry {
namespace {

using Batch = std::vector<MachineHourRecord>;

MachineHourRecord MakeRecord(int machine, int hour, double tasks = 100.0) {
  MachineHourRecord r;
  r.machine_id = machine;
  r.hour = hour;
  r.sku = machine % 3;
  r.sc = machine % 2;
  r.avg_running_containers = 8.0;
  r.cpu_utilization = 0.5;
  r.tasks_finished = tasks;
  r.data_read_mb = 4000.0;
  r.avg_task_latency_s = tasks > 0.0 ? 20.0 : 0.0;
  r.cpu_time_core_s = 40000.0;
  r.power_watts = 280.0;
  return r;
}

TEST(IngestionPipelineTest, CleanBatchIsBitIdenticalPassThrough) {
  TelemetryStore direct, piped;
  std::vector<MachineHourRecord> batch;
  for (int h = 0; h < 5; ++h) {
    for (int m = 0; m < 10; ++m) batch.push_back(MakeRecord(m, h, 100.0 + h + m));
  }
  direct.AppendAll(batch);

  IngestionPipeline pipeline(&piped, IngestionPipeline::Options());
  ASSERT_TRUE(pipeline.Ingest(batch).ok());

  EXPECT_EQ(pipeline.counters().accepted, batch.size());
  EXPECT_EQ(pipeline.counters().quarantined, 0u);
  // Bit-identical content and order.
  EXPECT_EQ(direct.ToCsv(), piped.ToCsv());
}

TEST(IngestionPipelineTest, QuarantinesNonFiniteAndOutOfRange) {
  TelemetryStore sink;
  IngestionPipeline pipeline(&sink, IngestionPipeline::Options());

  auto nan_record = MakeRecord(0, 0);
  nan_record.data_read_mb = std::numeric_limits<double>::quiet_NaN();
  auto inf_record = MakeRecord(1, 0);
  inf_record.avg_task_latency_s = std::numeric_limits<double>::infinity();
  auto negative = MakeRecord(2, 0);
  negative.tasks_finished = -5.0;
  auto hot = MakeRecord(3, 0);
  hot.cpu_utilization = 1.7;
  auto ghost_latency = MakeRecord(4, 0, /*tasks=*/0.0);
  ghost_latency.avg_task_latency_s = 12.0;

  ASSERT_TRUE(
      pipeline.Ingest(Batch{nan_record, inf_record, negative, hot, ghost_latency, MakeRecord(5, 0)})
          .ok());
  EXPECT_EQ(pipeline.counters().accepted, 1u);
  EXPECT_EQ(pipeline.counters().quarantined, 5u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kNonFinite), 2u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kOutOfRange), 2u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kInconsistent), 1u);
  EXPECT_EQ(sink.size(), 1u);
  ASSERT_EQ(pipeline.quarantine().size(), 5u);
  EXPECT_EQ(pipeline.quarantine()[0].reason, QuarantineReason::kNonFinite);
}

TEST(IngestionPipelineTest, DeduplicatesOnMachineHour) {
  TelemetryStore sink;
  IngestionPipeline pipeline(&sink, IngestionPipeline::Options());
  auto r = MakeRecord(7, 3);
  ASSERT_TRUE(pipeline.Ingest(Batch{r, r, MakeRecord(7, 4)}).ok());
  // Dedup works across Ingest calls too.
  ASSERT_TRUE(pipeline.Ingest(Batch{r}).ok());
  EXPECT_EQ(pipeline.counters().accepted, 2u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kDuplicate), 2u);
  EXPECT_EQ(sink.size(), 2u);
}

TEST(IngestionPipelineTest, LatenessBoundAgainstWatermark) {
  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.max_lateness_hours = 2;
  IngestionPipeline pipeline(&sink, options);

  ASSERT_TRUE(pipeline.Ingest(Batch{MakeRecord(0, 10)}).ok());
  EXPECT_EQ(pipeline.watermark(), 10);
  // Hour 8 is within tolerance; hour 7 is too late.
  ASSERT_TRUE(pipeline.Ingest(Batch{MakeRecord(1, 8), MakeRecord(2, 7)}).ok());
  EXPECT_EQ(pipeline.counters().accepted, 2u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kLate), 1u);
}

TEST(IngestionPipelineTest, StuckCounterDetection) {
  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.stuck_run_threshold = 3;
  IngestionPipeline pipeline(&sink, options);

  // Same machine, same metric payload, advancing hours: the first three are
  // accepted (indistinguishable from a quiet machine), the rest quarantined.
  std::vector<MachineHourRecord> batch;
  for (int h = 0; h < 8; ++h) {
    auto r = MakeRecord(1, h);
    r.tasks_finished = 100.0;  // Frozen payload.
    batch.push_back(r);
  }
  // A healthy machine with varying metrics is untouched.
  for (int h = 0; h < 8; ++h) batch.push_back(MakeRecord(2, h, 100.0 + h));

  ASSERT_TRUE(pipeline.Ingest(batch).ok());
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kStuckCounter), 5u);
  EXPECT_EQ(pipeline.counters().accepted, 11u);
}

TEST(IngestionPipelineTest, TransientWriteFailuresRetryThenSucceed) {
  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.retry.max_attempts = 4;
  IngestionPipeline pipeline(&sink, options);
  int failures_left = 2;
  pipeline.set_write_hook([&failures_left](const MachineHourRecord&, int) {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("flaky sink");
    }
    return Status::OK();
  });
  ASSERT_TRUE(pipeline.Ingest(Batch{MakeRecord(0, 0)}).ok());
  EXPECT_EQ(pipeline.counters().accepted, 1u);
  EXPECT_EQ(pipeline.counters().transient_write_failures, 2u);
  EXPECT_EQ(pipeline.retry_policy().stats().retries, 2);
}

TEST(IngestionPipelineTest, ExhaustedRetriesQuarantineNotDrop) {
  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.retry.max_attempts = 3;
  IngestionPipeline pipeline(&sink, options);
  pipeline.set_write_hook(
      [](const MachineHourRecord&, int) { return Status::Unavailable("down"); });
  ASSERT_TRUE(pipeline.Ingest(Batch{MakeRecord(0, 0)}).ok());
  EXPECT_EQ(pipeline.counters().accepted, 0u);
  EXPECT_EQ(pipeline.counters().Reason(QuarantineReason::kWriteFailed), 1u);
  EXPECT_EQ(sink.size(), 0u);
}

// --- Property tests: for ANY generated record stream and fault profile, (a)
// nothing leaving the pipeline contains NaN/Inf/negative metrics or
// out-of-range utilization, and (b) accepted + quarantined == seen — every
// input record is accounted for exactly once.

struct PropertyCase {
  uint64_t seed;
  bool moderate;  ///< false => a harsher profile.
};

class IngestionPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(IngestionPropertyTest, OutputSaneAndConservationHolds) {
  const PropertyCase param = GetParam();
  sim::FaultProfile profile = sim::FaultProfile::Moderate();
  if (!param.moderate) {
    profile.drop_rate = 0.1;
    profile.duplicate_rate = 0.15;
    profile.non_finite_rate = 0.2;
    profile.out_of_range_rate = 0.2;
    profile.outlier_rate = 0.1;
    profile.stuck_machine_fraction = 0.2;
    profile.late_rate = 0.2;
    profile.transient_error_rate = 0.3;
  }
  sim::TelemetryFaultInjector injector(profile, param.seed);

  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.stuck_run_threshold = 4;
  options.max_lateness_hours = profile.max_late_hours;
  IngestionPipeline pipeline(&sink, options);
  pipeline.set_write_hook(injector.MakeWriteHook());

  // A random record stream: random sizes, hours, metric magnitudes.
  Rng rng(param.seed);
  size_t fed_to_pipeline = 0;
  for (int hour = 0; hour < 72; ++hour) {
    std::vector<MachineHourRecord> batch;
    int machines = static_cast<int>(rng.UniformInt(5, 40));
    for (int m = 0; m < machines; ++m) {
      MachineHourRecord r = MakeRecord(m, hour);
      r.tasks_finished = rng.Uniform(0.0, 500.0);
      r.avg_task_latency_s = r.tasks_finished > 0.0 ? rng.Uniform(1.0, 60.0) : 0.0;
      r.data_read_mb = rng.Uniform(0.0, 20000.0);
      r.cpu_utilization = rng.Uniform();
      batch.push_back(r);
    }
    auto corrupted = injector.Corrupt(batch);
    fed_to_pipeline += corrupted.size();
    ASSERT_TRUE(pipeline.Ingest(corrupted).ok());
  }
  auto tail = injector.Flush();
  fed_to_pipeline += tail.size();
  ASSERT_TRUE(pipeline.Ingest(tail).ok());

  // (a) Everything in the sink is sane.
  for (const MachineHourRecord& r : sink.records()) {
    for (double v : {r.avg_running_containers, r.cpu_utilization, r.tasks_finished,
                     r.data_read_mb, r.avg_task_latency_s, r.cpu_time_core_s,
                     r.queued_containers, r.queue_latency_ms, r.rejected_containers,
                     r.power_watts}) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
    EXPECT_LE(r.cpu_utilization, 1.0);
    EXPECT_FALSE(r.tasks_finished <= 0.0 && r.avg_task_latency_s > 0.0);
  }

  // (b) Exact accounting: accepted + quarantined == seen == records fed in,
  // and the sink holds exactly the accepted records.
  const auto& c = pipeline.counters();
  EXPECT_EQ(c.seen, fed_to_pipeline);
  EXPECT_EQ(c.accepted + c.quarantined, c.seen);
  EXPECT_EQ(sink.size(), c.accepted);
  size_t by_reason_total = 0;
  for (size_t i = 0; i < kNumQuarantineReasons; ++i) by_reason_total += c.by_reason[i];
  EXPECT_EQ(by_reason_total, c.quarantined);
  EXPECT_EQ(pipeline.quarantine().size(), c.quarantined);

  // No duplicate (machine, hour) pair survives.
  std::set<std::pair<int, int>> keys;
  for (const MachineHourRecord& r : sink.records()) {
    EXPECT_TRUE(keys.emplace(r.machine_id, r.hour).second);
  }
}

// --- The stuck-counter screen keeps each machine's last metric payload and
// compares the next one word for word, and a checkpoint saves the words. So
// a pipeline restored from its own checkpoint before every record screens
// exactly as one that never restores. (The layout before checkpoint format
// 1 saved the payload's FNV-1a signature, so this reference compared every
// record by hash.)

/// Ingests `batch` one record at a time, each after a checkpoint round trip.
void IngestHashing(IngestionPipeline* reference, const std::vector<MachineHourRecord>& batch) {
  for (const MachineHourRecord& r : batch) {
    ASSERT_TRUE(reference->RestoreState(reference->SerializeState()).ok());
    ASSERT_TRUE(reference->Ingest(Batch{r}).ok());
  }
}

TEST(IngestionPipelineTest, StuckScreenMatchesTheHashingReference) {
  constexpr int kHours = 32;
  sim::PerfModel model = sim::PerfModel::CreateDefault();
  sim::WorkloadModel workload = sim::WorkloadModel::CreateDefault();
  sim::ClusterSpec spec = sim::ClusterSpec::Default();
  spec.total_machines = 80;
  sim::Cluster cluster = std::move(sim::Cluster::Build(model.catalog(), spec)).value();
  const sim::FaultProfile profile = sim::FaultProfile::Moderate();
  IngestionPipeline::Options options;
  options.max_lateness_hours = 12;
  options.stuck_run_threshold = 4;
  size_t stuck = 0;
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::FluidEngine::Options engine_options;
    engine_options.seed = seed;
    sim::FluidEngine engine(&model, &cluster, &workload, engine_options);
    // One injector corrupts the stream; each pipeline draws its transient
    // write failures from its own copy, so both see the same failures.
    sim::TelemetryFaultInjector corrupter(profile, seed), hooks(profile, seed),
        reference_hooks(profile, seed);
    TelemetryStore sink, reference_sink;
    auto pipeline = std::make_unique<IngestionPipeline>(&sink, options);
    pipeline->set_write_hook(hooks.MakeWriteHook());
    IngestionPipeline reference(&reference_sink, options);
    reference.set_write_hook(reference_hooks.MakeWriteHook());
    for (int hour = 0; hour <= kHours; ++hour) {
      std::vector<MachineHourRecord> batch;
      if (hour < kHours) {
        TelemetryStore simulated;
        ASSERT_TRUE(engine.Run(hour, 1, &simulated).ok());
        batch = corrupter.Corrupt(simulated.records());
      } else {
        batch = corrupter.Flush();
      }
      if (hour == kHours / 2) {
        // Resume mid-stream: the restored machines compare their words.
        auto resumed = std::make_unique<IngestionPipeline>(&sink, options);
        ASSERT_TRUE(resumed->RestoreState(pipeline->SerializeState()).ok());
        resumed->set_write_hook(hooks.MakeWriteHook());
        pipeline = std::move(resumed);
      }
      ASSERT_TRUE(pipeline->Ingest(batch).ok());
      IngestHashing(&reference, batch);
      EXPECT_EQ(pipeline->counters().by_reason, reference.counters().by_reason) << "hour " << hour;
      ASSERT_EQ(pipeline->SerializeState(), reference.SerializeState()) << "hour " << hour;
    }
    EXPECT_EQ(sink.ToCsv(), reference_sink.ToCsv());
    stuck += pipeline->counters().Reason(QuarantineReason::kStuckCounter);
  }
  EXPECT_GT(stuck, 0u);
}

INSTANTIATE_TEST_SUITE_P(Profiles, IngestionPropertyTest,
                         ::testing::Values(PropertyCase{1, true}, PropertyCase{2, true},
                                           PropertyCase{3, false}, PropertyCase{4, false},
                                           PropertyCase{99, false}));

// --- Metrics-level conservation: the pipeline mirrors its counters into the
// kea::obs registry, so the accepted + quarantined == seen invariant — and
// the per-reason breakdown — must hold for the *registry's* view too, not
// just the struct the pipeline hands back.

void ExpectSameAsReference(const IngestionPipeline& pipeline, const TelemetryStore& sink,
                           const ReferenceIngestionPipeline& reference,
                           const TelemetryStore& reference_sink) {
  EXPECT_EQ(sink.SerializeState(), reference_sink.SerializeState()) << "accepted records";
  const IngestionPipeline::Counters& got = pipeline.counters();
  const IngestionPipeline::Counters& want = reference.counters();
  EXPECT_EQ(got.seen, want.seen);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.quarantined, want.quarantined);
  EXPECT_EQ(got.by_reason, want.by_reason);
  EXPECT_EQ(got.transient_write_failures, want.transient_write_failures);
  ASSERT_EQ(pipeline.quarantine().size(), reference.quarantine().size());
  for (size_t i = 0; i < pipeline.quarantine().size(); ++i) {
    ASSERT_EQ(Encode(pipeline.quarantine()[i]), Encode(reference.quarantine()[i]))
        << "quarantined record " << i;
  }
  EXPECT_EQ(pipeline.SerializeState(), reference.SerializeState());
}

TEST(DedupBitmapTest, MatchesTheHashSetReferenceOverRandomStreams) {
  // Streams of fresh records, in-batch and cross-batch duplicates, late
  // records reaching back across many 64-hour words, and machine ids and
  // hours at the int extremes, negative ones included. With validation off
  // every id and hour reaches the dedup index; with it on, negative ones are
  // screened first. A write hook refuses some writes for good and delays
  // others, so a record can pass the dedup check and still not be indexed.
  constexpr int kMax = std::numeric_limits<int>::max();
  constexpr int kMin = std::numeric_limits<int>::min();
  const int extremes[] = {kMin, kMin + 1, -65, -64, -1, 0, 63, 64, kMax - 64, kMax - 1, kMax};
  const int num_extremes = static_cast<int>(std::size(extremes));
  WriteHook hook = [](const MachineHourRecord& r, int attempt) -> Status {
    if (r.machine_id % 13 == 5) return Status::Internal("sink refused the record");
    if (r.hour % 7 == 3 && attempt == 0) return Status::Unavailable("sink busy");
    return Status::OK();
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    IngestionPipeline::Options options;
    options.validate = seed % 2 == 0;
    options.max_lateness_hours = seed % 4 >= 2 ? 24 : -1;
    options.stuck_run_threshold = seed % 3 == 0 ? 3 : 0;
    // A watermark at INT_MAX would make every later record late.
    const bool high_hours = options.max_lateness_hours < 0;
    TelemetryStore sink, reference_sink;
    IngestionPipeline pipeline(&sink, options);
    ReferenceIngestionPipeline reference(&reference_sink, options);
    pipeline.set_write_hook(hook);
    reference.set_write_hook(hook);
    Rng rng(seed);
    std::vector<MachineHourRecord> history;
    int now = 0;
    for (int b = 0; b < 30; ++b) {
      Batch batch;
      for (int i = 0; i < 300; ++i) {
        MachineHourRecord r = MakeRecord(static_cast<int>(rng.UniformInt(0, 50)), now,
                                         rng.Uniform() < 0.05 ? 0.0 : 100.0);
        const double u = rng.Uniform();
        if (u < 0.15 && !batch.empty()) {
          r = batch[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(batch.size()) - 1))];
        } else if (u < 0.25 && !history.empty()) {
          r = history[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(history.size()) - 1))];
        } else if (u < 0.40) {
          r.hour = now - static_cast<int>(rng.UniformInt(1, 400));
        } else if (u < 0.46) {
          r.machine_id = extremes[rng.UniformInt(0, num_extremes - 1)];
        } else if (u < 0.52) {
          const int hour = extremes[rng.UniformInt(0, num_extremes - 1)];
          if (high_hours || hour < 0) r.hour = hour;
        } else if (u < 0.55) {
          r.machine_id = extremes[rng.UniformInt(0, num_extremes - 1)];
          r.hour = extremes[rng.UniformInt(0, num_extremes - 1)];
          if (!high_hours && r.hour > 0) r.hour = -r.hour;
        }
        batch.push_back(r);
      }
      ASSERT_TRUE(pipeline.Ingest(batch).ok());
      reference.Ingest(batch);
      ExpectSameAsReference(pipeline, sink, reference, reference_sink);
      if (HasFailure()) return;
      history.insert(history.end(), batch.begin(), batch.end());
      now += static_cast<int>(rng.UniformInt(1, 40));
    }
    EXPECT_GT(pipeline.counters().Reason(QuarantineReason::kDuplicate), 0u);
    EXPECT_GT(pipeline.counters().accepted, 0u);

    // A pipeline restored from the reference's state decides as it does.
    TelemetryStore restored_sink = sink;
    IngestionPipeline restored(&restored_sink, options);
    restored.set_write_hook(hook);
    ASSERT_TRUE(restored.RestoreState(reference.SerializeState()).ok());
    EXPECT_EQ(restored.SerializeState(), reference.SerializeState());
    ASSERT_TRUE(restored.Ingest(history).ok());
    reference.Ingest(history);
    ExpectSameAsReference(restored, restored_sink, reference, reference_sink);
  }
}

TEST(IngestionObsMetricsTest, RegistryConservationInvariantHolds) {
#ifdef KEA_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
  obs::Registry& reg = obs::Registry::Get();
  reg.ResetForTest();

  TelemetryStore sink;
  IngestionPipeline::Options options;
  options.max_lateness_hours = 2;
  IngestionPipeline pipeline(&sink, options);

  auto nan_record = MakeRecord(0, 10);
  nan_record.data_read_mb = std::numeric_limits<double>::quiet_NaN();
  auto dup = MakeRecord(1, 10);
  auto late = MakeRecord(2, 3);  // Watermark will be 10 after the first batch.
  ASSERT_TRUE(
      pipeline.Ingest(Batch{MakeRecord(3, 10), nan_record, dup, dup, late}).ok());

  const uint64_t seen = reg.CounterValue("ingest.seen");
  const uint64_t accepted = reg.CounterValue("ingest.accepted");
  const uint64_t quarantined = reg.CounterValue("ingest.quarantined");
  EXPECT_EQ(seen, 5u);
  EXPECT_EQ(accepted + quarantined, seen);

  // The labeled per-reason counters partition the quarantined total.
  uint64_t by_reason = 0;
  for (size_t i = 0; i < kNumQuarantineReasons; ++i) {
    by_reason += reg.CounterValue(
        "ingest.quarantined",
        std::string("reason=") +
            QuarantineReasonToString(static_cast<QuarantineReason>(i)));
  }
  EXPECT_EQ(by_reason, quarantined);

  // Registry view agrees with the pipeline's own counters exactly.
  EXPECT_EQ(seen, pipeline.counters().seen);
  EXPECT_EQ(accepted, pipeline.counters().accepted);
  EXPECT_EQ(quarantined, pipeline.counters().quarantined);
}

// The ingest.* counters are process-wide: restoring one pipeline's
// checkpoint moves them by that pipeline's own change and leaves what every
// other live pipeline counted.
TEST(IngestionObsMetricsTest, RestoringOnePipelineKeepsTheOthersCounts) {
#ifdef KEA_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
  obs::Registry& reg = obs::Registry::Get();
  reg.ResetForTest();

  TelemetryStore sink_a, sink_b, sink_c;
  IngestionPipeline a(&sink_a, IngestionPipeline::Options());
  IngestionPipeline b(&sink_b, IngestionPipeline::Options());
  std::vector<MachineHourRecord> five;
  for (int m = 0; m < 5; ++m) five.push_back(MakeRecord(m, 0));
  ASSERT_TRUE(a.Ingest(five).ok());
  ASSERT_TRUE(b.Ingest(Batch{MakeRecord(0, 0), MakeRecord(1, 0)}).ok());
  EXPECT_EQ(reg.CounterValue("ingest.seen"), 7u);

  IngestionPipeline c(&sink_c, IngestionPipeline::Options());
  ASSERT_TRUE(c.RestoreState(b.SerializeState()).ok());
  EXPECT_EQ(reg.CounterValue("ingest.seen"), 9u);
  EXPECT_EQ(reg.CounterValue("ingest.accepted"), 9u);

  // Restoring C again changes nothing: its own count is already B's.
  ASSERT_TRUE(c.RestoreState(b.SerializeState()).ok());
  EXPECT_EQ(reg.CounterValue("ingest.seen"), 9u);
}

}  // namespace
}  // namespace kea::telemetry
