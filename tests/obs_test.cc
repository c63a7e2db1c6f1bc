#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "opt/montecarlo.h"
#include "telemetry/ingestion.h"

namespace kea::obs {
namespace {

// Every test resets the process-global registry up front; the obs_test
// binary owns it, so cross-test leakage is only ever from earlier tests in
// this file.

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef KEA_OBS_DISABLED
    GTEST_SKIP() << "observability compiled out (KEA_OBS=OFF)";
#endif
    Enable();  // metrics on, tracing off
    Registry::Get().ResetForTest();
    Tracer::Get().Clear();
    PhaseProfiler::Get().ResetForTest();
  }
  void TearDown() override { Enable(); }
};

// ---------------------------------------------------------------------------
// Instruments

TEST_F(ObsTest, CounterIncrementsAndLabeledInstrumentsAreDistinct) {
  Registry& reg = Registry::Get();
  Counter* plain = reg.GetCounter("t.count");
  Counter* a = reg.GetCounter("t.count", "k=a");
  Counter* b = reg.GetCounter("t.count", "k=b");
  EXPECT_NE(plain, a);
  EXPECT_NE(a, b);
  // Same (name, labels) -> same instrument, forever.
  EXPECT_EQ(a, reg.GetCounter("t.count", "k=a"));

  plain->Increment();
  a->Increment(3);
  EXPECT_EQ(reg.CounterValue("t.count"), 1u);
  EXPECT_EQ(reg.CounterValue("t.count", "k=a"), 3u);
  EXPECT_EQ(reg.CounterValue("t.count", "k=b"), 0u);
  EXPECT_EQ(reg.CounterValue("never.created"), 0u);
}

TEST_F(ObsTest, HistogramBucketsAndMoments) {
  Registry& reg = Registry::Get();
  Histogram* h =
      reg.GetHistogram("t.hist", "", {1.0, 10.0, 100.0}, Kind::kDeterministic);
  h->Observe(0.5);    // bucket 0 (<= 1)
  h->Observe(1.0);    // bucket 0 (inclusive edge)
  h->Observe(5.0);    // bucket 1
  h->Observe(1000.0); // +inf overflow bucket
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->sum(), 1006.5);
  EXPECT_DOUBLE_EQ(h->mean(), 1006.5 / 4.0);
  std::vector<uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST_F(ObsTest, ConcurrentIncrementsLoseNothing) {
  Registry& reg = Registry::Get();
  Counter* c = reg.GetCounter("t.concurrent");
  Histogram* h =
      reg.GetHistogram("t.concurrent_hist", "", {0.5}, Kind::kDeterministic);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c, h] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(1.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(h->sum(), static_cast<double>(kThreads * kPerThread));
}

// Snapshot consistency: a render racing Observe() must never show a
// histogram whose count disagrees with the sum of its buckets. The bucket
// increment and the count increment are separate relaxed atomics, so a
// renderer that reads count_ directly can observe the gap between them; the
// renderers instead derive count from one bucket snapshot. This test
// tortures that path: four writer threads hammer a histogram (and a counter,
// for ordering noise) while the main thread repeatedly renders and re-parses
// the text and JSON exports.
TEST_F(ObsTest, RenderedHistogramCountMatchesBucketsUnderConcurrentWriters) {
  Registry& reg = Registry::Get();
  Counter* c = reg.GetCounter("t.torture");
  Histogram* h =
      reg.GetHistogram("t.torture_hist", "", {0.5, 1.5}, Kind::kDeterministic);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([c, h, &stop, t] {
      // Each writer targets a different bucket so every bucket races.
      const double v = t == 0 ? 0.25 : (t == 1 ? 1.0 : 2.0);
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        h->Observe(v);
      }
    });
  }

  // Pulls the numbers after `marker` up to `close`, split on commas, keeping
  // only the digits after the last ':' of each token (handles both the
  // "le0.5:n" text form and the bare JSON form).
  auto parse_buckets = [](const std::string& out, size_t from,
                          const std::string& marker, char close) {
    std::vector<uint64_t> buckets;
    size_t begin = out.find(marker, from);
    EXPECT_NE(begin, std::string::npos) << out;
    begin += marker.size();
    size_t end = out.find(close, begin);
    EXPECT_NE(end, std::string::npos) << out;
    std::string body = out.substr(begin, end - begin);
    size_t pos = 0;
    while (pos <= body.size()) {
      size_t comma = body.find(',', pos);
      std::string token = body.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      size_t colon = token.rfind(':');
      if (colon != std::string::npos) token = token.substr(colon + 1);
      buckets.push_back(std::stoull(token));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    return buckets;
  };
  auto parse_count = [](const std::string& out, const std::string& marker) {
    size_t pos = out.find(marker);
    EXPECT_NE(pos, std::string::npos) << out;
    return std::pair<uint64_t, size_t>(
        std::stoull(out.substr(pos + marker.size())), pos);
  };

  for (int iter = 0; iter < 200; ++iter) {
    const std::string text = reg.RenderText();
    auto [text_count, text_pos] =
        parse_count(text, "histogram t.torture_hist count=");
    std::vector<uint64_t> text_buckets =
        parse_buckets(text, text_pos, "buckets=[", ']');
    ASSERT_EQ(text_buckets.size(), 3u);
    uint64_t text_sum = 0;
    for (uint64_t b : text_buckets) text_sum += b;
    EXPECT_EQ(text_count, text_sum) << "iter " << iter << ": " << text;

    const std::string json = reg.RenderJson();
    size_t name_pos = json.find("\"name\":\"t.torture_hist\"");
    ASSERT_NE(name_pos, std::string::npos) << json;
    size_t count_pos = json.find("\"count\":", name_pos);
    ASSERT_NE(count_pos, std::string::npos) << json;
    uint64_t json_count = std::stoull(json.substr(count_pos + 8));
    std::vector<uint64_t> json_buckets =
        parse_buckets(json, name_pos, "\"buckets\":[", ']');
    ASSERT_EQ(json_buckets.size(), 3u);
    uint64_t json_sum = 0;
    for (uint64_t b : json_buckets) json_sum += b;
    EXPECT_EQ(json_count, json_sum) << "iter " << iter << ": " << json;
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();

  // Quiescent: every path agrees, and nothing was lost.
  std::vector<uint64_t> final_buckets = h->bucket_counts();
  uint64_t final_sum = 0;
  for (uint64_t b : final_buckets) final_sum += b;
  EXPECT_EQ(h->count(), final_sum);
  EXPECT_EQ(h->count(), c->value());
}

// ---------------------------------------------------------------------------
// Kill switches

TEST_F(ObsTest, DisabledMetricsDropMutationsButKeepValues) {
  Registry& reg = Registry::Get();
  Counter* c = reg.GetCounter("t.switch");
  c->Increment(5);
  DisableMetrics();
  c->Increment(100);  // no-op while disabled
  EXPECT_EQ(c->value(), 5u);
  EnableMetrics();
  c->Increment();
  EXPECT_EQ(c->value(), 6u);
}

TEST_F(ObsTest, DisableKillsMetricsAndTracingTogether) {
  EnableTracing();
  Disable();
  EXPECT_FALSE(MetricsEnabled());
  EXPECT_FALSE(TraceEnabled());
  const uint64_t scopes = PhaseProfiler::Get().scope_count();
  {
    KEA_TRACE_SPAN("t.dead");
    Registry::Get().GetCounter("t.dead")->Increment();
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
  EXPECT_EQ(Registry::Get().CounterValue("t.dead"), 0u);
  // The phase trie sits under the same switch.
  EXPECT_EQ(PhaseProfiler::Get().scope_count(), scopes);
  EXPECT_EQ(PhaseProfiler::Get().CollapsedStack().find("t.dead"),
            std::string::npos);
  Enable();
  EXPECT_TRUE(MetricsEnabled());
  EXPECT_FALSE(TraceEnabled());  // default state: tracing stays opt-in
}

TEST_F(ObsTest, RestoreToBypassesKillSwitch) {
  Counter* c = Registry::Get().GetCounter("t.restore");
  DisableMetrics();
  c->RestoreTo(42);  // checkpoint/resume path must work even when disabled
  EXPECT_EQ(c->value(), 42u);
  EnableMetrics();
}

// ---------------------------------------------------------------------------
// Snapshot exports

TEST_F(ObsTest, RendersExcludeTimingInstrumentsByDefault) {
  Registry& reg = Registry::Get();
  reg.GetCounter("t.logical")->Increment(7);
  reg.GetCounter("t.walltime", "", Kind::kTiming)->Increment(9);
  reg.GetHistogram("t.lat_us", "", LatencyBucketsUs(), Kind::kTiming)
      ->Observe(12.0);

  for (const std::string& out :
       {reg.RenderText(), reg.RenderCsv(), reg.RenderJson()}) {
    EXPECT_NE(out.find("t.logical"), std::string::npos) << out;
    EXPECT_EQ(out.find("t.walltime"), std::string::npos) << out;
    EXPECT_EQ(out.find("t.lat_us"), std::string::npos) << out;
  }
  for (const std::string& out :
       {reg.RenderText(true), reg.RenderCsv(true), reg.RenderJson(true)}) {
    EXPECT_NE(out.find("t.walltime"), std::string::npos) << out;
    EXPECT_NE(out.find("t.lat_us"), std::string::npos) << out;
  }
}

// The tentpole acceptance criterion: the deterministic snapshot is
// bit-identical across thread counts — with tracing enabled — because every
// kDeterministic instrument counts logical events, never scheduling.
TEST_F(ObsTest, DeterministicSnapshotBitIdenticalAcrossThreadCounts) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts = {1, 4, hw > 0 ? hw : 2};

  auto run_workload = [](int num_threads) {
    // The Monte-Carlo grid hot path: mc.* counters plus the ThreadPool's
    // own job/task counters.
    opt::GridOptions options;
    options.num_threads = num_threads;
    auto sample = [](size_t i, Rng* r) {
      return r->LogNormal(0.0, 0.1) + 0.01 * static_cast<double>(i);
    };
    Rng rng(1234);
    auto grid = opt::EstimateOverGrid(24, sample, 50, &rng, options);
    ASSERT_TRUE(grid.ok());
    ASSERT_EQ(grid->estimates.size(), 24u);

    // And the parallel-for path directly, with traced per-task spans.
    Counter* touched = Registry::Get().GetCounter("t.workload_tasks");
    common::ThreadPool::Run(num_threads, 32, [touched](size_t) {
      KEA_TRACE_SPAN("t.task");
      touched->Increment();
    });
  };

  std::vector<std::string> texts, csvs, jsons;
  for (int n : thread_counts) {
    Registry::Get().ResetForTest();
    Tracer::Get().Clear();
    EnableTracing();  // must not perturb the deterministic snapshot
    run_workload(n);
    DisableTracing();
    texts.push_back(Registry::Get().RenderText());
    csvs.push_back(Registry::Get().RenderCsv());
    jsons.push_back(Registry::Get().RenderJson());
  }
  for (size_t i = 1; i < texts.size(); ++i) {
    EXPECT_EQ(texts[0], texts[i]) << "threads=" << thread_counts[i];
    EXPECT_EQ(csvs[0], csvs[i]) << "threads=" << thread_counts[i];
    EXPECT_EQ(jsons[0], jsons[i]) << "threads=" << thread_counts[i];
  }
  // Sanity: the workload actually counted.
  EXPECT_NE(texts[0].find("mc.grid_calls"), std::string::npos);
  EXPECT_NE(texts[0].find("t.workload_tasks"), std::string::npos);
  EXPECT_NE(texts[0].find("threadpool.tasks"), std::string::npos);
}

// Acceptance criterion: counters are bit-identical across a checkpoint /
// resume cycle. The ingestion pipeline serializes its counters and restores
// the registry mirrors on RestoreState.
TEST_F(ObsTest, CountersBitIdenticalAcrossCheckpointResume) {
  using telemetry::IngestionPipeline;
  using telemetry::MachineHourRecord;
  using telemetry::TelemetryStore;

  auto make_record = [](int machine, int hour) {
    MachineHourRecord r;
    r.machine_id = machine;
    r.hour = hour;
    r.avg_running_containers = 8.0;
    r.cpu_utilization = 0.5;
    r.tasks_finished = 100.0;
    r.data_read_mb = 4000.0;
    r.avg_task_latency_s = 20.0;
    r.cpu_time_core_s = 40000.0;
    r.power_watts = 280.0;
    return r;
  };

  TelemetryStore sink;
  IngestionPipeline pipeline(&sink, IngestionPipeline::Options());
  auto bad = make_record(9, 0);
  bad.cpu_utilization = 2.0;  // out of range -> quarantined
  ASSERT_TRUE(
      pipeline.Ingest(std::vector<telemetry::MachineHourRecord>{make_record(0, 0), make_record(1, 0), bad}).ok());
  const std::string before = Registry::Get().RenderText();
  const std::string blob = pipeline.SerializeState();
  ASSERT_NE(before.find("ingest.seen"), std::string::npos);

  // "Crash": fresh process state -> zeroed registry, new pipeline.
  Registry::Get().ResetForTest();
  TelemetryStore sink2;
  IngestionPipeline resumed(&sink2, IngestionPipeline::Options());
  ASSERT_TRUE(resumed.RestoreState(blob).ok());

  EXPECT_EQ(Registry::Get().RenderText(), before);
  EXPECT_EQ(Registry::Get().CounterValue("ingest.seen"), 3u);
  EXPECT_EQ(Registry::Get().CounterValue("ingest.accepted"), 2u);
  EXPECT_EQ(Registry::Get().CounterValue("ingest.quarantined"), 1u);
}

// ---------------------------------------------------------------------------
// Tracing

TEST_F(ObsTest, DisabledTracingRecordsNothingAndSpanIdsAreZero) {
  ASSERT_FALSE(TraceEnabled());
  {
    SpanGuard guard("t.noop");
    EXPECT_EQ(guard.id(), 0u);
    KEA_TRACE_SPAN("t.noop_macro");
  }
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(ObsTest, NestedSpansRecordHierarchy) {
  EnableTracing();
  uint64_t outer_id = 0, inner_id = 0;
  {
    SpanGuard outer("t.outer");
    outer_id = outer.id();
    EXPECT_EQ(CurrentScope().span_id, outer_id);
    {
      SpanGuard inner("t.inner");
      inner_id = inner.id();
      EXPECT_NE(inner_id, outer_id);
    }
  }
  DisableTracing();

  std::vector<TraceEvent> events = Tracer::Get().Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "t.outer");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[1].name, "t.inner");
  EXPECT_EQ(events[1].parent_id, outer_id);
  // LIFO close order: inner ends before outer.
  EXPECT_EQ(events[2].name, "t.inner");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[3].name, "t.outer");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
}

// Sums entry counts per scope name over the trie subtree rooted at `node`.
void CountByName(const PhaseNode* node, std::map<std::string, size_t>* out) {
  if (const uint64_t n = node->count.load()) (*out)[node->name] += n;
  for (const PhaseNode* c = node->first_child.load(); c != nullptr;
       c = c->next_sibling) {
    CountByName(c, out);
  }
}

// The trace-export round trip: multi-threaded nested span tree -> Chrome
// trace JSON -> parse back -> every B has a matching E, nesting preserved,
// JSON valid. The same guards feed the phase trie, which must see exactly
// the scopes the trace saw, with worker scopes under the dispatching one.
TEST_F(ObsTest, ChromeTraceRoundTripMultiThreaded) {
  EnableTracing();
  constexpr size_t kTasks = 48;
  const uint64_t scopes_before = PhaseProfiler::Get().scope_count();
  {
    KEA_TRACE_SPAN("t.root", {{"tasks", "48"}});
    common::ThreadPool::Run(4, kTasks, [](size_t i) {
      KEA_TRACE_SPAN("t.work", {{"index", std::to_string(i)}});
      if (i % 2 == 0) {
        KEA_TRACE_SPAN("t.work_child");
      }
    });
  }
  DisableTracing();

  const std::string json = Tracer::Get().ExportChromeTrace();
  TraceValidation v = ValidateChromeTrace(json);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.begins, v.ends);
  EXPECT_EQ(v.events, v.begins + v.ends);
  EXPECT_GE(v.threads, 1u);
  EXPECT_GE(v.max_depth, 2u);  // root -> parallel_for on the main thread

  size_t work = 0, work_child = 0, root = 0;
  for (const auto& [name, count] : v.name_counts) {
    if (name == "t.work") work = count;
    if (name == "t.work_child") work_child = count;
    if (name == "t.root") root = count;
  }
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(work, kTasks);
  EXPECT_EQ(work_child, kTasks / 2);

  // Cross-thread parenting: every t.work span, on a worker or drained by the
  // calling thread, is a child of the dispatching parallel_for span.
  std::vector<TraceEvent> events = Tracer::Get().Events();
  uint64_t parallel_for_span = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "threadpool.parallel_for" &&
        e.phase == TraceEvent::Phase::kBegin) {
      parallel_for_span = e.span_id;
    }
  }
  ASSERT_NE(parallel_for_span, 0u);
  for (const TraceEvent& e : events) {
    if (e.name == "t.work" && e.phase == TraceEvent::Phase::kBegin) {
      EXPECT_EQ(e.parent_id, parallel_for_span);
    }
  }

  // One primitive, one set of scopes: the trie counted every span the trace
  // recorded, name by name, and nothing else.
  PhaseProfiler& prof = PhaseProfiler::Get();
  EXPECT_EQ(prof.scope_count() - scopes_before, v.begins);
  std::map<std::string, size_t> trie_counts;
  CountByName(prof.Child(nullptr, "t.root"), &trie_counts);
  const std::vector<std::pair<std::string, size_t>> trie_name_counts(
      trie_counts.begin(), trie_counts.end());
  EXPECT_EQ(trie_name_counts, v.name_counts);
  // Worker frames fold under the dispatching scope, never at the root.
  const std::string folded = prof.CollapsedStack();
  EXPECT_NE(folded.find("t.root;threadpool.parallel_for;t.work "),
            std::string::npos)
      << folded;
  EXPECT_NE(folded.find("t.root;threadpool.parallel_for;t.work;t.work_child "),
            std::string::npos)
      << folded;
  EXPECT_EQ(folded.find("\nt.work"), std::string::npos) << folded;
  EXPECT_EQ(folded.find("t.root "), 0u) << folded;
}

TEST_F(ObsTest, TraceValidatorRejectsMalformedStreams) {
  // Not JSON at all.
  EXPECT_FALSE(ValidateChromeTrace("not json").ok);
  // Valid JSON, wrong shape.
  EXPECT_FALSE(ValidateChromeTrace("{\"foo\": 1}").ok);
  // A begin with no end. (span/parent ids are JSON strings in the export —
  // 64-bit ids do not fit in a double.)
  const char* unclosed =
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,"
      "\"tid\":1,\"args\":{\"span\":\"1\",\"parent\":\"0\"}}]}";
  EXPECT_FALSE(ValidateChromeTrace(unclosed).ok);
  // Interleaved (non-LIFO) end order on one thread.
  const char* crossed =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"1\",\"parent\":\"0\"}},"
      "{\"name\":\"b\",\"ph\":\"B\",\"ts\":2,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"2\",\"parent\":\"1\"}},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"1\"}},"
      "{\"name\":\"b\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"2\"}}]}";
  EXPECT_FALSE(ValidateChromeTrace(crossed).ok);
  // A well-formed two-span tree passes.
  const char* good =
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"1\",\"parent\":\"0\"}},"
      "{\"name\":\"b\",\"ph\":\"B\",\"ts\":2,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"2\",\"parent\":\"1\"}},"
      "{\"name\":\"b\",\"ph\":\"E\",\"ts\":3,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"2\"}},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":4,\"pid\":1,\"tid\":1,"
      "\"args\":{\"span\":\"1\"}}]}";
  TraceValidation v = ValidateChromeTrace(good);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.begins, 2u);
  EXPECT_EQ(v.max_depth, 2u);
}

// Reads the self nanoseconds of `path` from a collapsed-stack export.
uint64_t FoldedSelfNs(const std::string& folded, const std::string& path) {
  const std::string key = path + " ";
  for (size_t pos = 0; pos < folded.size();) {
    const size_t eol = folded.find('\n', pos);
    const std::string line = folded.substr(pos, eol - pos);
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  ADD_FAILURE() << "no line for " << path << " in:\n" << folded;
  return 0;
}

TEST_F(ObsTest, TrieSelfTimeExcludesNestedScopes) {
  {
    KEA_TRACE_SPAN("t.parent");
    {
      KEA_TRACE_SPAN("t.child");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const std::string folded = PhaseProfiler::Get().CollapsedStack();
  const uint64_t child_self = FoldedSelfNs(folded, "t.parent;t.child");
  EXPECT_GE(child_self, 20'000'000u);
  EXPECT_LT(FoldedSelfNs(folded, "t.parent"), child_self);
}

// ---------------------------------------------------------------------------
// Bounded tracer buffers (ISSUE 9 S1)

TEST_F(ObsTest, TracerCapDropsSpansWholeAndCountsThem) {
  Tracer& tr = Tracer::Get();
  EnableTracing();
  tr.SetMaxEventsPerThread(4);
  {
    // Each begin is one buffered event; the cap admits a begin while the
    // buffer holds fewer than 4 events, so the 5th span is dropped whole.
    SpanGuard a("a");
    SpanGuard b("b");
    SpanGuard c("c");
    SpanGuard d("d");
    SpanGuard e("e");  // buffer full -> dropped
    EXPECT_NE(d.id(), 0u);
    EXPECT_EQ(e.id(), 0u);  // dropped span id is 0, so it records no end
    // The guards close e..a here: end events bypass the cap, so every open
    // span still closes.
  }
  EXPECT_EQ(tr.dropped_span_count(), 1u);
  // The drop is exported as a counter so dashboards see truncated traces.
  EXPECT_EQ(Registry::Get().CounterValue("obs.trace.dropped_spans"), 1u);
  // Every recorded begin got its end: the capped trace stays well-formed.
  TraceValidation v = ValidateChromeTrace(tr.ExportChromeTrace());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.begins, 4u);
  DisableTracing();
  tr.SetMaxEventsPerThread(1u << 20);
  tr.Clear();
}

// ---------------------------------------------------------------------------
// Histogram schema mismatch (ISSUE 9 S2)

TEST_F(ObsTest, HistogramSchemaMismatchKeepsFirstSchemaAndCounts) {
  Registry& reg = Registry::Get();
  Histogram* first =
      reg.GetHistogram("t.schema", "", {1.0, 10.0}, Kind::kDeterministic);
  EXPECT_EQ(reg.CounterValue("kea.obs.schema_mismatch"), 0u);
  // Same bounds in a different order are the same schema.
  EXPECT_EQ(reg.GetHistogram("t.schema", "", {10.0, 1.0}, Kind::kDeterministic),
            first);
  EXPECT_EQ(reg.CounterValue("kea.obs.schema_mismatch"), 0u);
  // Different bounds: the first caller's schema is kept (same instrument
  // returned so call sites keep working) and the mismatch is counted.
  Histogram* again = reg.GetHistogram("t.schema", "", {5.0}, Kind::kDeterministic);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->bounds(), (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(reg.CounterValue("kea.obs.schema_mismatch"), 1u);
  // Every mismatched request counts (the stderr warning is once per
  // instrument, but the counter keeps the full rate).
  reg.GetHistogram("t.schema", "", {7.0}, Kind::kDeterministic);
  EXPECT_EQ(reg.CounterValue("kea.obs.schema_mismatch"), 2u);
  // The mismatch counter is deterministic: it shows up in the deterministic
  // exports so a schema drift fails bit-identity checks loudly.
  EXPECT_NE(reg.RenderText(false).find("kea.obs.schema_mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace kea::obs
