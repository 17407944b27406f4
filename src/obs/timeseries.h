#ifndef CHEF_OBS_TIMESERIES_H_
#define CHEF_OBS_TIMESERIES_H_

/// \file
/// Time-series telemetry on top of the metrics registry: the temporal
/// axis the paper's headline figures live on (Figure 9 plots coverage
/// *over time*), and the data the live cluster monitor and the
/// --stats-out stream consume.
///
/// A TimeSeriesRecorder samples a MetricsRegistry on a steady-clock
/// interval into one bounded ring of the most recent
/// kSeriesRingCapacity samples. A shard worker drains the ring onto its
/// progress frames at the sampling cadence, so the coordinator's
/// ClusterSeries holds the whole run; the ring only bounds the
/// recorder's memory. Each sample is one whole MetricsSnapshot, so
/// serialization, cluster merging, and windowed histogram quantiles all
/// reuse the metrics machinery instead of inventing per-metric storage.
///
/// Windowed rates over a sample vector are counter deltas between the
/// newest sample and the newest sample at least `window` seconds older
/// (falling back to the oldest sample for short runs): jobs/s,
/// new-fingerprints/s, solver-seconds/s, shared-cache hit rate.
/// Windowed latency quantiles come from bucket-wise histogram deltas
/// between the same two samples.
///
/// ClusterSeries is the coordinator-side merge: one series per source
/// shard, updated idempotently from progress frames (samples keyed by
/// index), with merged counter curves defined as the sum over sources of
/// each source's last value at-or-before t — order- and
/// arrival-independent, and monotone whenever the per-source counters
/// are.
///
/// Serialization: strict JSON sample arrays (wire "series" fields,
/// report telemetry), NDJSON lines for --stats-out streaming, and the
/// per-workload coverage_curves CSV that reproduces Figure 9.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace chef::support {
class JsonWriter;
struct JsonValue;
}  // namespace chef::support

namespace chef::obs {

// Instrument names the service layer publishes for time-series
// consumers. Per-workload variants append ".<workload>".
inline constexpr char kJobsFinishedCounter[] = "service.jobs_finished";
inline constexpr char kFingerprintsNewCounter[] = "corpus.fingerprints_new";
inline constexpr char kCorpusSizeGauge[] = "corpus.size";
inline constexpr char kSolverSolveHistogram[] = "solver.solve_seconds";
inline constexpr char kSolverQueriesCounter[] = "solver.queries";
inline constexpr char kSharedCacheHitsCounter[] = "solver.shared_cache_hits";
inline constexpr char kPlateauCancelsCounter[] = "scheduler.plateau_cancels";

/// One point on the time axis: a whole-registry snapshot stamped with
/// the recorder's 1-based sample index and seconds since its epoch.
struct SeriesSample {
    uint64_t index = 0;
    double t_seconds = 0.0;
    MetricsSnapshot metrics;
};

/// Gauge lookup over a snapshot (counters have CounterValue already).
/// Returns \p fallback when absent.
int64_t SnapshotGauge(const MetricsSnapshot& snapshot,
                      const std::string& name, int64_t fallback = 0);

// --- Windowed queries over an ascending-by-time sample vector ---------
//
// The baseline sample is the newest one with t <= newest.t - window,
// falling back to the oldest available; all return 0 / false when fewer
// than two distinct samples (or zero elapsed time) are in range.

/// (counter[newest] - counter[baseline]) / (t_newest - t_baseline).
/// Clamped at 0 (counters are monotone per source).
double WindowedCounterRate(const std::vector<SeriesSample>& samples,
                           const std::string& counter,
                           double window_seconds);

/// delta(numerator) / delta(denominator) over the window; 0 when the
/// denominator did not move.
double WindowedCounterRatio(const std::vector<SeriesSample>& samples,
                            const std::string& numerator,
                            const std::string& denominator,
                            double window_seconds);

/// Histogram-sum rate: delta(sum_nanos)/1e9 per elapsed second — e.g.
/// solver-seconds spent per wall second over the window.
double WindowedHistogramSumRate(const std::vector<SeriesSample>& samples,
                                const std::string& histogram,
                                double window_seconds);

/// Bucket-wise histogram delta over the window (count, sum, buckets
/// subtract; min/max fall back to the newest sample's cumulative values,
/// keeping QuantileSeconds' conservative-high bias). False when the
/// histogram is absent or nothing was recorded in the window.
bool WindowedHistogramDelta(const std::vector<SeriesSample>& samples,
                            const std::string& histogram,
                            double window_seconds, HistogramSnapshot* delta);

/// Samples a TimeSeriesRecorder retains.
inline constexpr size_t kSeriesRingCapacity = 256;

/// Bounded-memory interval sampler over one MetricsRegistry. Thread-safe:
/// the service's sampler thread records while the shard worker's protocol
/// thread drains SamplesSince onto its progress frames.
class TimeSeriesRecorder
{
  public:
    struct Options {
        /// Sampling cadence: the service's sampler thread sleeps this
        /// long between samples.
        double interval_seconds = 0.1;
    };

    // Delegation instead of a default argument: a `= Options()` default
    // would need the nested struct's member initializers before the
    // enclosing class is complete, which gcc rejects.
    TimeSeriesRecorder() : TimeSeriesRecorder(Options()) {}
    explicit TimeSeriesRecorder(Options options);

    const Options& options() const { return options_; }

    /// Seconds since construction on the steady clock.
    double ElapsedSeconds() const;

    /// Unconditionally snapshot \p registry now.
    void SampleNow(const MetricsRegistry& registry);

    /// Deterministic entry (tests, replay): record a pre-built snapshot
    /// at an explicit time. Times must be non-decreasing.
    void Record(double t_seconds, MetricsSnapshot snapshot);

    /// Index of the newest sample, which is also the number of samples
    /// ever recorded; 0 when none recorded yet.
    uint64_t last_index() const;

    /// Retained samples with index > since_index, ascending. The shard
    /// worker's incremental drain: callers remember the last shipped
    /// index. After the ring wraps, older unshipped samples are gone —
    /// by design; shippers run at the same cadence as sampling.
    std::vector<SeriesSample> SamplesSince(uint64_t since_index) const;

  private:
    void RecordLocked(double t_seconds, MetricsSnapshot snapshot);

    Options options_;
    std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    uint64_t next_index_ = 1;
    double last_sample_t_ = -1.0;
    /// The most recent kSeriesRingCapacity samples, oldest first.
    std::deque<SeriesSample> ring_;
};

/// The coordinator's merged cluster view: one bounded series per source
/// shard, fed idempotently from progress/result "series" payloads.
/// Not internally synchronized — the coordinator mutates and reads it
/// from its Run() thread only (monitor callbacks run on that thread).
class ClusterSeries
{
  public:
    /// Per-source retention bound; exceeding it thins the older half
    /// (every second sample dropped), preserving curve shape.
    static constexpr size_t kMaxSamplesPerSource = 4096;

    /// Merges \p samples into \p source's series, deduplicating by
    /// sample index (re-delivery is a no-op). Returns how many samples
    /// were new.
    size_t Update(const std::string& source,
                  const std::vector<SeriesSample>& samples);

    void Clear();

    std::vector<std::string> Sources() const;
    /// nullptr when the source is unknown.
    const std::vector<SeriesSample>* SeriesFor(
        const std::string& source) const;
    size_t total_samples() const;

    /// Largest t_seconds across all sources; 0 when empty.
    double LatestTimeSeconds() const;

    /// MergeFrom-fold of every source's newest snapshot (the cluster
    /// point-in-time view; counters sum, gauges label as *_max/_total).
    MetricsSnapshot MergedLatest() const;

    /// Merged counter curve: for each time in the union of all sample
    /// times, the sum over sources of that source's last value
    /// at-or-before t. Order-independent in arrival and merge order;
    /// monotone when every per-source counter is.
    std::vector<std::pair<double, uint64_t>> MergedCounterCurve(
        const std::string& counter) const;

  private:
    std::map<std::string, std::vector<SeriesSample>> series_;
};

/// Serializes samples as a JSON array:
///   [{"index":n,"t_seconds":s,"metrics":{...}},...]
/// with metrics in the WriteMetricsSnapshot schema. This is the wire
/// "series" payload and the report's per-source series form.
void WriteSeriesSamples(support::JsonWriter& json,
                        const std::vector<SeriesSample>& samples);

/// Inverse of WriteSeriesSamples; \p array must be a JSON array.
bool DecodeSeriesSamples(const support::JsonValue& array,
                         std::vector<SeriesSample>* samples,
                         std::string* error);

/// Whole-cluster series document: {"series":{"<source>":[samples...]}}.
std::string RenderClusterSeriesJson(const ClusterSeries& series);

/// One NDJSON line (newline-terminated strict JSON object) describing
/// \p sample from \p source plus the cluster context at that point:
/// windowed per-source rates (jobs/s, fingerprints/s, solver-seconds/s,
/// shared-cache hit rate, solver p95), corpus size, plateau cancels,
/// and merged cluster totals. This is the --stats-out record schema.
std::string RenderSeriesSampleNdjson(const ClusterSeries& series,
                                     const std::string& source,
                                     const SeriesSample& sample,
                                     double window_seconds);

/// The Figure-9 reproduction: per-workload new-fingerprint curves vs
/// jobs and vs wall time, one CSV row per merged-curve point:
///   workload,t_seconds,jobs_finished,new_fingerprints
/// Workloads come from `corpus.fingerprints_new.<workload>` counters in
/// the merged cluster view; the pseudo-workload "__all__" carries the
/// unsuffixed cluster totals.
std::string RenderCoverageCurvesCsv(const ClusterSeries& series);

}  // namespace chef::obs

#endif  // CHEF_OBS_TIMESERIES_H_
