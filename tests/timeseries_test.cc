/// \file
/// Tests for the time-series telemetry layer: recorder ring wraparound,
/// windowed-rate correctness on synthetic counter curves, series JSON /
/// NDJSON round trips through the strict parser, ClusterSeries merge order-independence and idempotent
/// re-delivery, and a 2-shard loopback batch whose merged fingerprint
/// curve must be monotone and equal to the sum of the per-shard curves.

#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/job.h"
#include "shard/coordinator.h"
#include "support/json.h"

namespace chef::obs {
namespace {

using support::JsonValue;
using support::JsonWriter;
using support::ParseJson;

/// A snapshot whose counters are exactly \p counters (sorted by name,
/// matching the registry invariant).
MetricsSnapshot
CountersSnapshot(std::map<std::string, uint64_t> counters)
{
    MetricsSnapshot snapshot;
    snapshot.counters.assign(counters.begin(), counters.end());
    return snapshot;
}

std::vector<uint64_t>
Indices(const std::vector<SeriesSample>& samples)
{
    std::vector<uint64_t> indices;
    for (const SeriesSample& sample : samples) {
        indices.push_back(sample.index);
    }
    return indices;
}

// --------------------------------------------------------------------------
// Recorder: ring wraparound.

TEST(TimeSeriesTest, RawRingWrapsAndSamplesSinceStaysAscending)
{
    TimeSeriesRecorder recorder;
    const uint64_t total = kSeriesRingCapacity + 6;
    for (uint64_t i = 1; i <= total; ++i) {
        recorder.Record(static_cast<double>(i), CountersSnapshot({{"c", i}}));
    }
    EXPECT_EQ(recorder.last_index(), total);
    // Only the newest kSeriesRingCapacity samples survive: memory stays
    // bounded no matter how long the run gets.
    const std::vector<SeriesSample> kept = recorder.SamplesSince(0);
    ASSERT_EQ(kept.size(), kSeriesRingCapacity);
    EXPECT_EQ(kept.front().index, 7u);
    for (size_t i = 1; i < kept.size(); ++i) {
        EXPECT_EQ(kept[i].index, kept[i - 1].index + 1);
    }
    EXPECT_EQ(Indices(recorder.SamplesSince(total - 2)),
              (std::vector<uint64_t>{total - 1, total}));
    EXPECT_TRUE(recorder.SamplesSince(total).empty());

    const SeriesSample& latest = kept.back();
    EXPECT_EQ(latest.index, total);
    EXPECT_DOUBLE_EQ(latest.t_seconds, static_cast<double>(total));
    EXPECT_EQ(latest.metrics.CounterValue("c"), total);
}

// --------------------------------------------------------------------------
// Windowed rates over synthetic counter curves.

TEST(TimeSeriesTest, WindowedRatesMatchSyntheticSlopes)
{
    TimeSeriesRecorder recorder;
    // A linear counter (jobs at 10/s) plus a cumulative histogram
    // accruing 1000 nanos per second.
    for (int t = 0; t <= 10; ++t) {
        MetricsSnapshot snapshot =
            CountersSnapshot({{"jobs", static_cast<uint64_t>(10 * t)}});
        HistogramSnapshot h;
        h.name = "h";
        h.count = static_cast<uint64_t>(t);
        h.sum_nanos = static_cast<uint64_t>(t) * 1000;
        h.min_nanos = t > 0 ? 1000 : 0;
        h.max_nanos = t > 0 ? 1000 : 0;
        if (t > 0) {
            h.buckets[Histogram::BucketFor(1000)] =
                static_cast<uint64_t>(t);
        }
        snapshot.histograms.push_back(std::move(h));
        recorder.Record(static_cast<double>(t), std::move(snapshot));
    }
    const std::vector<SeriesSample> samples = recorder.SamplesSince(0);
    // Baseline = newest sample at least `window` older than the newest.
    EXPECT_DOUBLE_EQ(WindowedCounterRate(samples, "jobs", 2.0), 10.0);
    // Window larger than the series: falls back to the oldest sample.
    EXPECT_DOUBLE_EQ(WindowedCounterRate(samples, "jobs", 100.0), 10.0);
    // Unknown counters read as flat zero, not an error.
    EXPECT_DOUBLE_EQ(WindowedCounterRate(samples, "absent", 2.0), 0.0);

    HistogramSnapshot delta;
    ASSERT_TRUE(WindowedHistogramDelta(samples, "h", 2.0, &delta));
    EXPECT_EQ(delta.count, 2u);
    EXPECT_EQ(delta.sum_nanos, 2000u);
    EXPECT_FALSE(WindowedHistogramDelta(samples, "absent", 2.0, &delta));

    EXPECT_DOUBLE_EQ(WindowedHistogramSumRate(samples, "h", 2.0),
                     1000.0 / 1e9);
    // A single sample can never produce a rate.
    TimeSeriesRecorder lone;
    lone.Record(0.0, CountersSnapshot({{"jobs", 5}}));
    EXPECT_DOUBLE_EQ(WindowedCounterRate(lone.SamplesSince(0), "jobs", 2.0),
                     0.0);
}

TEST(TimeSeriesTest, CounterRateClampsAtZeroOnRegression)
{
    // Counters are monotone per source; a decreasing series (e.g. a
    // restarted shard) must clamp to 0 instead of going negative.
    TimeSeriesRecorder recorder;
    recorder.Record(0.0, CountersSnapshot({{"jobs", 100}}));
    recorder.Record(1.0, CountersSnapshot({{"jobs", 40}}));
    EXPECT_DOUBLE_EQ(
        WindowedCounterRate(recorder.SamplesSince(0), "jobs", 10.0), 0.0);
}

// --------------------------------------------------------------------------
// Serialization round trips through the strict parser.

TEST(TimeSeriesTest, SeriesSamplesJsonRoundTrip)
{
    TimeSeriesRecorder recorder;
    MetricsRegistry registry;
    registry.counter("solver.queries")->Add(3);
    registry.gauge("corpus.size")->Set(17);
    registry.histogram("solver.solve_seconds")->RecordNanos(250'000);
    recorder.Record(0.25, registry.Snapshot());
    registry.counter("solver.queries")->Add(4);
    recorder.Record(0.75, registry.Snapshot());
    const std::vector<SeriesSample> original = recorder.SamplesSince(0);

    JsonWriter json;
    WriteSeriesSamples(json, original);
    const std::string text = json.Take();
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(text, &parsed, &error)) << error;
    std::vector<SeriesSample> decoded;
    ASSERT_TRUE(DecodeSeriesSamples(parsed, &decoded, &error)) << error;
    JsonWriter again;
    WriteSeriesSamples(again, decoded);
    EXPECT_EQ(again.Take(), text);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[1].index, 2u);
    EXPECT_DOUBLE_EQ(decoded[1].t_seconds, 0.75);
    EXPECT_EQ(decoded[1].metrics.CounterValue("solver.queries"), 7u);

    // A sample without its index is rejected — the index is what makes
    // cluster-side deduplication idempotent.
    JsonValue bogus;
    ASSERT_TRUE(
        ParseJson("[{\"t_seconds\":1.0,\"metrics\":{}}]", &bogus, &error))
        << error;
    std::vector<SeriesSample> ignored;
    EXPECT_FALSE(DecodeSeriesSamples(bogus, &ignored, &error));
}

TEST(TimeSeriesTest, NdjsonLineIsOneStrictJsonObject)
{
    ClusterSeries series;
    std::vector<SeriesSample> samples;
    for (int t = 0; t <= 4; ++t) {
        SeriesSample sample;
        sample.index = static_cast<uint64_t>(t + 1);
        sample.t_seconds = static_cast<double>(t);
        sample.metrics = CountersSnapshot(
            {{kFingerprintsNewCounter, static_cast<uint64_t>(20 * t)},
             {kJobsFinishedCounter, static_cast<uint64_t>(2 * t)}});
        samples.push_back(std::move(sample));
    }
    ASSERT_EQ(series.Update("shard0", samples), samples.size());

    const std::string line = RenderSeriesSampleNdjson(
        series, "shard0", samples.back(), /*window_seconds=*/2.0);
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(line.find('\n'), line.size() - 1)
        << "one NDJSON record must be exactly one line";
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(line, &parsed, &error)) << error;
    std::string source;
    EXPECT_TRUE(parsed.GetString("source", &source));
    EXPECT_EQ(source, "shard0");
    uint64_t index = 0;
    EXPECT_TRUE(parsed.GetUint64("index", &index));
    EXPECT_EQ(index, 5u);
    double rate = 0.0;
    EXPECT_TRUE(parsed.GetDouble("jobs_per_second", &rate));
    EXPECT_DOUBLE_EQ(rate, 2.0);
    EXPECT_TRUE(parsed.GetDouble("fingerprints_per_second", &rate));
    EXPECT_DOUBLE_EQ(rate, 20.0);
    const JsonValue* cluster = parsed.Find("cluster");
    ASSERT_NE(cluster, nullptr);
    uint64_t total = 0;
    EXPECT_TRUE(cluster->GetUint64("fingerprints_total", &total));
    EXPECT_EQ(total, 80u);
}

// --------------------------------------------------------------------------
// ClusterSeries: merge semantics.

TEST(TimeSeriesTest, ClusterMergeIsOrderIndependentAndIdempotent)
{
    std::vector<SeriesSample> a, b;
    for (int t = 0; t < 6; ++t) {
        SeriesSample sample;
        sample.index = static_cast<uint64_t>(t + 1);
        sample.t_seconds = static_cast<double>(t);
        sample.metrics =
            CountersSnapshot({{"c", static_cast<uint64_t>(10 * t)}});
        a.push_back(sample);
        sample.metrics =
            CountersSnapshot({{"c", static_cast<uint64_t>(3 * t)}});
        b.push_back(std::move(sample));
    }
    // One cluster sees A whole then B whole; the other sees B's tail,
    // then A, then B's head — chunked and out of source order.
    ClusterSeries forward, shuffled;
    EXPECT_EQ(forward.Update("sa", a), a.size());
    EXPECT_EQ(forward.Update("sb", b), b.size());
    EXPECT_EQ(shuffled.Update(
                  "sb", std::vector<SeriesSample>(b.begin() + 3, b.end())),
              3u);
    EXPECT_EQ(shuffled.Update("sa", a), a.size());
    EXPECT_EQ(shuffled.Update(
                  "sb", std::vector<SeriesSample>(b.begin(), b.begin() + 4)),
              3u);  // Indices 1..3 are new; 4 deduplicates.
    EXPECT_EQ(forward.total_samples(), shuffled.total_samples());
    EXPECT_EQ(forward.MergedCounterCurve("c"),
              shuffled.MergedCounterCurve("c"));
    EXPECT_EQ(RenderClusterSeriesJson(forward),
              RenderClusterSeriesJson(shuffled));

    // Re-delivering everything is a no-op (gossip may duplicate).
    EXPECT_EQ(forward.Update("sa", a), 0u);
    EXPECT_EQ(forward.Update("sb", b), 0u);
    EXPECT_EQ(forward.total_samples(), 2 * a.size());

    // The merged curve is the sum of per-source last-at-or-before
    // values: both sources step together here, so the curve is
    // 13*t at each union time, and monotone.
    const auto curve = forward.MergedCounterCurve("c");
    ASSERT_EQ(curve.size(), 6u);
    for (size_t i = 0; i < curve.size(); ++i) {
        EXPECT_DOUBLE_EQ(curve[i].first, static_cast<double>(i));
        EXPECT_EQ(curve[i].second, 13 * i);
    }
    // MergedLatest folds the newest snapshot per source.
    EXPECT_EQ(forward.MergedLatest().CounterValue("c"), 50u + 15u);
}

// --------------------------------------------------------------------------
// End-to-end: 2-shard loopback batch with live telemetry. The merged
// fingerprint curve must be monotone and everywhere equal to the sum of
// the per-shard curves, and the coverage CSV must be derivable.

TEST(TimeSeriesTest, LoopbackShardsMergedCurveIsSumOfShardCurves)
{
    std::vector<chef::service::JobSpec> jobs;
    int copy = 0;
    for (const char* workload :
         {"py/argparse", "py/simplejson", "lua/cliargs", "py/argparse"}) {
        chef::service::JobSpec spec;
        spec.workload = workload;
        spec.label = std::string(workload) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = 8;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }

    shard::ShardCoordinator::Options options;
    options.service.seed = 11;
    options.service.metrics_interval_seconds = 0.005;
    shard::ShardCoordinator coordinator(options);
    std::string error;
    ASSERT_TRUE(shard::RunLoopbackShards(&coordinator, jobs, 2, &error))
        << error;

    const ClusterSeries& series = coordinator.cluster_series();
    const std::vector<std::string> sources = series.Sources();
    ASSERT_EQ(sources.size(), 2u) << "both shards must report series";
    // Every shard contributes at least its final RunBatch sample, and
    // each series carries the shard's full counter state.
    uint64_t final_sum = 0;
    for (const std::string& source : sources) {
        const std::vector<SeriesSample>* shard = series.SeriesFor(source);
        ASSERT_NE(shard, nullptr);
        ASSERT_FALSE(shard->empty());
        final_sum +=
            shard->back().metrics.CounterValue(kFingerprintsNewCounter);
    }
    EXPECT_GT(final_sum, 0u);

    const auto curve = series.MergedCounterCurve(kFingerprintsNewCounter);
    ASSERT_FALSE(curve.empty());
    uint64_t previous = 0;
    for (const auto& [t, value] : curve) {
        EXPECT_GE(value, previous) << "merged curve must be monotone";
        previous = value;
        // Re-derive the sum-of-shards definition independently: each
        // source contributes its last value at-or-before t.
        uint64_t expected = 0;
        for (const std::string& source : sources) {
            const std::vector<SeriesSample>* shard =
                series.SeriesFor(source);
            uint64_t last = 0;
            for (const SeriesSample& sample : *shard) {
                if (sample.t_seconds > t) {
                    break;
                }
                last = sample.metrics.CounterValue(kFingerprintsNewCounter);
            }
            expected += last;
        }
        EXPECT_EQ(value, expected);
    }
    // The curve ends at the cluster total, which must agree with the
    // merged telemetry snapshot's counter.
    EXPECT_EQ(curve.back().second, final_sum);
    EXPECT_EQ(series.MergedLatest().CounterValue(kFingerprintsNewCounter),
              final_sum);

    // The Figure-9 CSV renders from the same series: header plus one
    // "__all__" row per merged-curve point, final row at the total.
    const std::string csv = RenderCoverageCurvesCsv(series);
    EXPECT_EQ(csv.rfind("workload,t_seconds,jobs_finished,new_fingerprints",
                        0),
              0u);
    EXPECT_NE(csv.find("__all__"), std::string::npos);
}

}  // namespace
}  // namespace chef::obs
