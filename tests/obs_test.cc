/// \file
/// Tests for the telemetry layer: striped counter/histogram concurrency,
/// snapshot isolation, log-bucket quantile bounds, the allocation-free
/// hot path, snapshot merge/serialization round trips, phase-tracer span
/// semantics, and an end-to-end 2-shard loopback batch whose trace must
/// be strict JSON with correctly nested spans from both shards.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "counting_allocator.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "service/job.h"
#include "shard/coordinator.h"
#include "support/json.h"

namespace chef::obs {
namespace {

using support::JsonValue;
using support::JsonWriter;
using support::ParseJson;

// --------------------------------------------------------------------------
// Counters and histograms under concurrency.

TEST(MetricsTest, CounterConcurrentAddsLoseNothing)
{
    MetricsRegistry registry;
    Counter* counter = registry.counter("test.adds");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 100'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([counter] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                counter->Add();
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(counter->Value(), kThreads * kPerThread);
    EXPECT_EQ(registry.Snapshot().CounterValue("test.adds"),
              kThreads * kPerThread);
}

TEST(MetricsTest, HistogramConcurrentRecordsLoseNothing)
{
    MetricsRegistry registry;
    Histogram* histogram = registry.histogram("test.latency");
    constexpr int kThreads = 8;
    constexpr uint64_t kPerThread = 10'000;
    constexpr uint64_t kNanos = 4096;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([histogram] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                histogram->RecordNanos(kNanos);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    const MetricsSnapshot snapshot = registry.Snapshot();
    const HistogramSnapshot* h = snapshot.FindHistogram("test.latency");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, kThreads * kPerThread);
    EXPECT_EQ(h->sum_nanos, kThreads * kPerThread * kNanos);
    EXPECT_EQ(h->min_nanos, kNanos);
    EXPECT_EQ(h->max_nanos, kNanos);
    EXPECT_EQ(h->buckets[Histogram::BucketFor(kNanos)],
              kThreads * kPerThread);
}

TEST(MetricsTest, HistogramBucketEdges)
{
    EXPECT_EQ(Histogram::BucketFor(0), 0u);
    EXPECT_EQ(Histogram::BucketFor(1), 1u);
    EXPECT_EQ(Histogram::BucketFor(2), 2u);
    EXPECT_EQ(Histogram::BucketFor(3), 2u);
    EXPECT_EQ(Histogram::BucketFor(4), 3u);
    // Bucket b >= 1 covers [2^(b-1), 2^b).
    for (size_t b = 1; b + 1 < kHistogramBuckets; ++b) {
        const uint64_t lower = uint64_t{1} << (b - 1);
        EXPECT_EQ(Histogram::BucketFor(lower), b);
        EXPECT_EQ(Histogram::BucketFor(2 * lower - 1), b);
        EXPECT_EQ(Histogram::BucketUpperNanos(b), 2 * lower - 1);
    }
}

TEST(MetricsTest, QuantileEstimateWithinFactorTwo)
{
    // A known distribution: 1..1000 microseconds, one sample each. The
    // true q-quantile is q*1000 us; the log-bucket estimate returns the
    // bucket's upper edge clamped to the observed max, so it must land
    // in [true, 2*true).
    MetricsRegistry registry;
    Histogram* histogram = registry.histogram("test.quantiles");
    for (uint64_t us = 1; us <= 1000; ++us) {
        histogram->RecordNanos(us * 1000);
    }
    const MetricsSnapshot snapshot = registry.Snapshot();
    const HistogramSnapshot* h = snapshot.FindHistogram("test.quantiles");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 1000u);
    EXPECT_EQ(h->min_nanos, 1000u);
    EXPECT_EQ(h->max_nanos, 1'000'000u);
    for (const double q : {0.5, 0.95, 0.99}) {
        const double true_seconds = q * 1000.0 * 1e-6;
        const double estimate = h->QuantileSeconds(q);
        EXPECT_GE(estimate, true_seconds) << "q=" << q;
        EXPECT_LT(estimate, 2.0 * true_seconds) << "q=" << q;
    }
    // q = 1.0 is exactly the observed max (the clamp).
    EXPECT_DOUBLE_EQ(h->QuantileSeconds(1.0), 1e-3);
    EXPECT_NEAR(h->MeanSeconds(), 500.5 * 1e-6, 1e-12);
}

TEST(MetricsTest, SnapshotIsIsolatedFromLaterRecording)
{
    MetricsRegistry registry;
    Counter* counter = registry.counter("test.c");
    Histogram* histogram = registry.histogram("test.h");
    counter->Add(5);
    histogram->RecordNanos(100);
    const MetricsSnapshot before = registry.Snapshot();
    counter->Add(7);
    histogram->RecordNanos(200);
    registry.gauge("test.g")->Set(-3);
    const MetricsSnapshot after = registry.Snapshot();

    EXPECT_EQ(before.CounterValue("test.c"), 5u);
    EXPECT_EQ(after.CounterValue("test.c"), 12u);
    ASSERT_NE(before.FindHistogram("test.h"), nullptr);
    EXPECT_EQ(before.FindHistogram("test.h")->count, 1u);
    EXPECT_EQ(after.FindHistogram("test.h")->count, 2u);
    EXPECT_TRUE(before.gauges.empty());
    ASSERT_EQ(after.gauges.size(), 1u);
    EXPECT_EQ(after.gauges[0].second, -3);
}

TEST(MetricsTest, HotPathDoesNotAllocate)
{
    MetricsRegistry registry;
    // Handles resolve (and intern names) up front; the hot path below
    // must never touch the registry map again.
    Counter* counter = registry.counter("test.hot");
    Histogram* histogram = registry.histogram("test.hot_latency");
    counter->Add();  // Warm the thread-stripe assignment.
    histogram->RecordNanos(1);

    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10'000; ++i) {
        counter->Add();
        histogram->RecordNanos(static_cast<uint64_t>(i));
    }
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
}

// --------------------------------------------------------------------------
// Snapshot merge and serialization.

std::string
Rendered(const MetricsSnapshot& snapshot)
{
    JsonWriter json;
    WriteMetricsSnapshot(json, snapshot);
    return json.Take();
}

TEST(MetricsTest, MergeSumsAndIsOrderIndependent)
{
    MetricsRegistry ra;
    ra.counter("x")->Add(1);
    ra.counter("y")->Add(2);
    ra.gauge("depth")->Set(4);
    ra.histogram("h")->RecordNanos(100);
    MetricsRegistry rb;
    rb.counter("y")->Add(3);
    rb.counter("z")->Add(4);
    rb.gauge("depth")->Set(6);
    rb.histogram("h")->RecordNanos(900);
    rb.histogram("h2")->RecordNanos(50);

    MetricsSnapshot ab = ra.Snapshot();
    ab.MergeFrom(rb.Snapshot());
    MetricsSnapshot ba = rb.Snapshot();
    ba.MergeFrom(ra.Snapshot());

    EXPECT_EQ(ab.CounterValue("x"), 1u);
    EXPECT_EQ(ab.CounterValue("y"), 5u);
    EXPECT_EQ(ab.CounterValue("z"), 4u);
    // Gauges are levels, not flows: the merge normalizes them into the
    // labeled space instead of silently summing, so a cluster snapshot
    // says which aggregation each value carries.
    ASSERT_EQ(ab.gauges.size(), 2u);
    EXPECT_EQ(ab.gauges[0].first, "depth_max");
    EXPECT_EQ(ab.gauges[0].second, 6);
    EXPECT_EQ(ab.gauges[1].first, "depth_total");
    EXPECT_EQ(ab.gauges[1].second, 10);
    // Re-merging an already-labeled snapshot keeps combining under each
    // label's own rule (max stays max, total keeps summing).
    MetricsSnapshot again = ab;
    again.MergeFrom(ra.Snapshot());
    ASSERT_EQ(again.gauges.size(), 2u);
    EXPECT_EQ(again.gauges[0].second, 6);
    EXPECT_EQ(again.gauges[1].second, 14);
    const HistogramSnapshot* h = ab.FindHistogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count, 2u);
    EXPECT_EQ(h->min_nanos, 100u);
    EXPECT_EQ(h->max_nanos, 900u);
    // The same entries from either merge order (sorted-by-name makes the
    // rendered forms directly comparable).
    EXPECT_EQ(Rendered(ab), Rendered(ba));
}

TEST(MetricsTest, SnapshotJsonRoundTrip)
{
    MetricsRegistry registry;
    registry.counter("solver.queries")->Add(42);
    registry.gauge("queue.depth")->Set(-7);
    Histogram* histogram = registry.histogram("solver.solve_seconds");
    histogram->RecordNanos(1);
    histogram->RecordNanos(1'000'000);
    const MetricsSnapshot original = registry.Snapshot();

    const std::string text = Rendered(original);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
    MetricsSnapshot decoded;
    ASSERT_TRUE(DecodeMetricsSnapshot(parsed, &decoded, &error)) << error;
    EXPECT_EQ(Rendered(decoded), text);
}

// --------------------------------------------------------------------------
// Phase tracer.

TEST(TraceTest, DisabledTracerRecordsNothing)
{
    PhaseTracer tracer;
    {
        CHEF_OBS_SPAN(span, &tracer, "test/span", "test");
        span.set_detail("ignored");
    }
    {
        CHEF_OBS_SPAN(span, static_cast<PhaseTracer*>(nullptr),
                      "test/null", "test");
    }
    tracer.RecordInstant("test/instant", "test");
    EXPECT_EQ(tracer.ApproxEventCount(), 0u);
    EXPECT_TRUE(tracer.TakeEvents().empty());
}

TEST(TraceTest, ScopedSpansNestAndCarryDetail)
{
    PhaseTracer tracer;
    tracer.set_enabled(true);
    tracer.set_pid(3);
    {
        ScopedSpan outer(&tracer, "outer", "test");
        ScopedSpan inner(&tracer, "inner", "test");
        inner.set_detail("d1");
    }
    std::vector<TraceEvent> events = tracer.TakeEvents();
    ASSERT_EQ(events.size(), 2u);
    // Inner closes first (LIFO destruction).
    const TraceEvent& inner = events[0].name == "inner" ? events[0]
                                                        : events[1];
    const TraceEvent& outer = events[0].name == "inner" ? events[1]
                                                        : events[0];
    EXPECT_EQ(inner.name, "inner");
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(inner.detail, "d1");
    EXPECT_EQ(inner.pid, 3u);
    EXPECT_EQ(inner.tid, outer.tid);
    EXPECT_GE(inner.ts_us, outer.ts_us);
    EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
    // Drained means drained.
    EXPECT_TRUE(tracer.TakeEvents().empty());
}

TEST(TraceTest, EnabledLatchesAtSpanOpen)
{
    PhaseTracer tracer;
    {
        ScopedSpan span(&tracer, "opened-disabled", "test");
        tracer.set_enabled(true);  // Must not make the span record.
    }
    EXPECT_TRUE(tracer.TakeEvents().empty());
    {
        ScopedSpan span(&tracer, "opened-enabled", "test");
        tracer.set_enabled(false);  // Latched open: still records.
    }
    EXPECT_EQ(tracer.TakeEvents().size(), 1u);
}

TEST(TraceTest, ChromeTraceIsStrictJson)
{
    PhaseTracer tracer;
    tracer.set_enabled(true);
    tracer.RecordSpan("solver/solve", "solver", 10, 5,
                      "tricky \"detail\"\nwith\tescapes");
    tracer.RecordInstant("sched/plateau_cancel", "service", "py/x");
    const std::string text = RenderChromeTrace(tracer.TakeEvents());
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
    const JsonValue* events = parsed.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->items.size(), 2u);
    std::string ph;
    EXPECT_TRUE(events->items[0].GetString("ph", &ph));
    EXPECT_EQ(ph, "X");
}

TEST(TraceTest, WireEventsRoundTrip)
{
    PhaseTracer tracer;
    tracer.set_enabled(true);
    tracer.set_pid(2);
    tracer.RecordSpan("engine/run", "engine", 100, 50, "run 7");
    tracer.RecordSpan("solver/sat", "solver", 120, 10);
    const std::vector<TraceEvent> original = tracer.TakeEvents();

    JsonWriter json;
    WriteTraceEvents(json, original);
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(json.Take(), &parsed, &error)) << error;
    std::vector<TraceEvent> decoded;
    ASSERT_TRUE(DecodeTraceEvents(parsed, &decoded, &error)) << error;
    ASSERT_EQ(decoded.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(decoded[i].name, original[i].name);
        EXPECT_EQ(decoded[i].cat, original[i].cat);
        EXPECT_EQ(decoded[i].detail, original[i].detail);
        EXPECT_EQ(decoded[i].ts_us, original[i].ts_us);
        EXPECT_EQ(decoded[i].dur_us, original[i].dur_us);
        EXPECT_EQ(decoded[i].tid, original[i].tid);
        EXPECT_EQ(decoded[i].pid, original[i].pid);
    }
}

// --------------------------------------------------------------------------
// End-to-end: a 2-shard loopback batch with tracing on. The rendered
// trace must be strict JSON, spans must arrive from both shards, and no
// job span may close before a solver span it contains (the nesting
// contract: ScopedSpan destruction is LIFO per thread, so a child that
// outlives its parent would mean a span leaked across job boundaries).

struct ParsedSpan {
    std::string name;
    uint64_t pid = 0;
    uint64_t tid = 0;
    uint64_t ts = 0;
    uint64_t dur = 0;
};

TEST(TraceTest, LoopbackShardTraceIsValidAndNested)
{
    std::vector<chef::service::JobSpec> jobs;
    int copy = 0;
    for (const char* workload :
         {"py/argparse", "py/simplejson", "lua/cliargs", "py/argparse"}) {
        chef::service::JobSpec spec;
        spec.workload = workload;
        spec.label = std::string(workload) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = 6;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }

    shard::ShardCoordinator::Options options;
    options.service.seed = 7;
    options.service.tracing = true;
    shard::ShardCoordinator coordinator(options);
    std::string error;
    ASSERT_TRUE(shard::RunLoopbackShards(&coordinator, jobs, 2, &error))
        << error;

    // Strict-parse the rendered Chrome trace.
    const std::string text = coordinator.RenderTrace();
    JsonValue parsed;
    ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
    const JsonValue* events = parsed.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_FALSE(events->items.empty());

    std::vector<ParsedSpan> spans;
    bool saw_pid[3] = {false, false, false};
    for (const JsonValue& event : events->items) {
        ParsedSpan span;
        ASSERT_TRUE(event.GetString("name", &span.name));
        ASSERT_TRUE(event.GetUint64("pid", &span.pid));
        ASSERT_TRUE(event.GetUint64("tid", &span.tid));
        ASSERT_TRUE(event.GetUint64("ts", &span.ts));
        ASSERT_TRUE(event.GetUint64("dur", &span.dur));
        if (span.pid < 3) {
            saw_pid[span.pid] = true;
        }
        spans.push_back(std::move(span));
    }
    // Workers stamp shard_id + 1; both shards must have contributed.
    EXPECT_FALSE(saw_pid[0]);
    EXPECT_TRUE(saw_pid[1]);
    EXPECT_TRUE(saw_pid[2]);

    // Nesting: every solver span that starts inside a job span on the
    // same (pid, tid) must also end inside it.
    size_t checked = 0;
    for (const ParsedSpan& solver : spans) {
        if (solver.name.rfind("solver/", 0) != 0) {
            continue;
        }
        for (const ParsedSpan& job : spans) {
            if (job.name != "job" || job.pid != solver.pid ||
                job.tid != solver.tid) {
                continue;
            }
            if (solver.ts >= job.ts && solver.ts < job.ts + job.dur) {
                EXPECT_LE(solver.ts + solver.dur, job.ts + job.dur)
                    << "solver span closes after its enclosing job span";
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 0u)
        << "expected solver spans nested inside job spans";

    // The merged report's telemetry section: cluster counters must equal
    // the per-shard sum.
    JsonValue report;
    ASSERT_TRUE(ParseJson(coordinator.RenderMergedReport(), &report,
                          &error))
        << error;
    const JsonValue* telemetry = report.Find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    const JsonValue* tele_shards = telemetry->Find("shards");
    const JsonValue* cluster = telemetry->Find("cluster");
    ASSERT_NE(tele_shards, nullptr);
    ASSERT_NE(cluster, nullptr);
    ASSERT_EQ(tele_shards->items.size(), 2u);
    uint64_t shard_sum = 0;
    for (const JsonValue& entry : tele_shards->items) {
        const JsonValue* metrics = entry.Find("metrics");
        ASSERT_NE(metrics, nullptr);
        const JsonValue* counters = metrics->Find("counters");
        ASSERT_NE(counters, nullptr);
        uint64_t value = 0;
        counters->GetUint64("solver.queries", &value);
        shard_sum += value;
    }
    uint64_t cluster_queries = 0;
    ASSERT_NE(cluster->Find("counters"), nullptr);
    cluster->Find("counters")->GetUint64("solver.queries",
                                         &cluster_queries);
    EXPECT_GT(cluster_queries, 0u);
    EXPECT_EQ(cluster_queries, shard_sum);
    // In-memory view agrees with the rendered one.
    EXPECT_EQ(coordinator.cluster_telemetry().CounterValue(
                  "solver.queries"),
              cluster_queries);
}

}  // namespace
}  // namespace chef::obs
