#ifndef CHEF_OBS_METRICS_H_
#define CHEF_OBS_METRICS_H_

/// \file
/// The metrics registry: named counters, gauges, and log-scale latency
/// histograms shared by every layer of the stack.
///
/// Design constraints, in order:
///
///  1. The hot path (a worker thread bumping a counter or recording one
///     solver-call latency) must be wait-free and allocation-free: one
///     relaxed atomic RMW on a cache line this thread rarely shares.
///     Counters and histogram buckets are *striped* — kStripes
///     cache-line-aligned atomic lanes, each thread hashed to one — so
///     eight engine workers incrementing `solver.queries` do not
///     serialize on a single line.
///  2. Reads are point-in-time snapshots. Snapshot() walks the registry
///     under its registration mutex and sums stripes with relaxed loads;
///     the result is a plain value type that can be merged, serialized,
///     and shipped across the shard wire while recording continues.
///  3. Handles are stable. counter()/gauge()/histogram() intern the name
///     once (mutex-guarded) and return a pointer that lives as long as
///     the registry, so instrumented code resolves its handles at
///     construction and never touches the map again.
///
/// Histograms are log2-bucketed over nanoseconds: bucket 0 holds zero,
/// bucket b >= 1 holds [2^(b-1), 2^b) ns, 64 buckets total (the last
/// bucket absorbs everything >= 2^62 ns, ~146 years). Quantile estimates
/// return the *upper edge* of the bucket containing the target rank —
/// within a factor of two of the true order statistic, biased
/// conservatively high, which is the right direction for latency SLOs.
///
/// Snapshots serialize through support/json (WriteMetricsSnapshot /
/// DecodeMetricsSnapshot): this is the schema the shard wire and
/// the merged report's `telemetry` section use.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace chef::support {
class JsonWriter;
struct JsonValue;
}  // namespace chef::support

namespace chef::obs {

/// Number of log2 latency buckets (fixed so snapshots merge bucket-wise
/// without negotiation).
constexpr size_t kHistogramBuckets = 64;

/// Stripes per hot metric. Eight covers the worker counts this codebase
/// runs (shards run 1-4 engine threads each) without making Snapshot()
/// walk hundreds of lanes per counter.
constexpr size_t kMetricStripes = 8;

/// The stripe this thread hashes to: assigned round-robin on first use,
/// so concurrent threads spread across lanes deterministically per
/// thread lifetime.
size_t ThisThreadStripe();

/// Monotonic counter. Add() is one relaxed fetch_add on this thread's
/// stripe; Value() sums stripes (approximate only in the sense that it
/// is a snapshot — no increments are ever lost).
class Counter
{
  public:
    void Add(uint64_t delta = 1)
    {
        stripes_[ThisThreadStripe()].value.fetch_add(
            delta, std::memory_order_relaxed);
    }

    uint64_t Value() const
    {
        uint64_t total = 0;
        for (const Stripe& stripe : stripes_) {
            total += stripe.value.load(std::memory_order_relaxed);
        }
        return total;
    }

  private:
    struct alignas(64) Stripe {
        std::atomic<uint64_t> value{0};
    };
    Stripe stripes_[kMetricStripes];
};

/// Last-writer-wins signed gauge (queue depths, byte budgets). Not
/// striped: gauges are set at checkpoint frequency, not hot-path
/// frequency.
class Gauge
{
  public:
    void Set(int64_t value)
    {
        value_.store(value, std::memory_order_relaxed);
    }
    void Add(int64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/// Log2-bucketed latency histogram over nanoseconds. RecordNanos() is
/// three relaxed RMWs on this thread's stripe (bucket, count, sum) plus
/// two rarely-contended CAS loops for min/max.
class Histogram
{
  public:
    void Record(double seconds)
    {
        if (seconds < 0) {
            seconds = 0;
        }
        RecordNanos(static_cast<uint64_t>(seconds * 1e9));
    }

    void RecordNanos(uint64_t nanos);

    /// Bucket index for a nanosecond value (exposed for tests).
    static size_t BucketFor(uint64_t nanos);
    /// Inclusive upper edge of a bucket, in nanoseconds.
    static uint64_t BucketUpperNanos(size_t bucket);

  private:
    friend class MetricsRegistry;

    struct alignas(64) Stripe {
        std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> sum_nanos{0};
    };
    Stripe stripes_[kMetricStripes];
    std::atomic<uint64_t> min_nanos_{UINT64_MAX};
    std::atomic<uint64_t> max_nanos_{0};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
    std::string name;
    uint64_t count = 0;
    uint64_t sum_nanos = 0;
    uint64_t min_nanos = 0;  ///< 0 when count == 0.
    uint64_t max_nanos = 0;
    std::array<uint64_t, kHistogramBuckets> buckets{};

    /// Upper-edge-of-bucket estimate of the q-quantile (0 < q <= 1), in
    /// seconds. Within a factor of two of the true order statistic,
    /// biased high. 0.0 when the histogram is empty.
    double QuantileSeconds(double q) const;
    double MeanSeconds() const
    {
        return count == 0 ? 0.0
                          : static_cast<double>(sum_nanos) / 1e9 /
                                static_cast<double>(count);
    }
};

/// Point-in-time copy of a whole registry: a plain value type that can
/// be merged (cluster aggregation) and serialized (shard wire, report
/// telemetry section) while recording continues. Entries are sorted by
/// name, so two snapshots of the same registry diff cleanly.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<HistogramSnapshot> histograms;

    /// Name-keyed merge: counters sum, histograms add bucket-wise and
    /// combine min/max. Gauges are point-in-time *levels*, so they do
    /// not sum: merging normalizes every gauge into the labeled pair
    /// `<name>_max` (combined by max across sources) and `<name>_total`
    /// (combined by sum — meaningful for capacity-style gauges like
    /// byte budgets), and already-labeled entries keep folding under
    /// their own rule. Entries only one side has are kept. This is the
    /// cluster-aggregation operation — order- and grouping-independent
    /// (hence `_total`, not an arrival-order-dependent `_last`), so the
    /// coordinator can fold shard snapshots in any arrival order.
    void MergeFrom(const MetricsSnapshot& other);

    /// 0 when absent — counters that never incremented are typically
    /// never registered.
    uint64_t CounterValue(const std::string& name) const;
    const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// The registry. One per scope that wants an isolated view (one per
/// shard worker, one per coordinator-less service run); layers share it
/// through obs::ObsContext.
class MetricsRegistry
{
  public:
    /// Interns \p name and returns a stable handle (the same pointer for
    /// the same name, forever). Mutex-guarded; resolve handles once at
    /// construction, not on the hot path.
    Counter* counter(const std::string& name);
    Gauge* gauge(const std::string& name);
    Histogram* histogram(const std::string& name);

    MetricsSnapshot Snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Serializes a snapshot as one JSON object:
///   {"counters":{name:n,...},"gauges":{name:n,...},
///    "histograms":[{"name":...,"count":n,"sum_nanos":n,"min_nanos":n,
///                   "max_nanos":n,"p50":s,"p95":s,"p99":s,"mean":s,
///                   "buckets":[[index,count],...]}]}
/// Buckets are sparse ([index, count] pairs); p50/p95/p99/mean are
/// derived conveniences (seconds) that DecodeMetricsSnapshot ignores.
void WriteMetricsSnapshot(support::JsonWriter& json,
                          const MetricsSnapshot& snapshot);

/// Inverse of WriteMetricsSnapshot. Returns false (with \p error) on
/// missing or mistyped fields.
bool DecodeMetricsSnapshot(const support::JsonValue& object,
                           MetricsSnapshot* snapshot, std::string* error);

}  // namespace chef::obs

#endif  // CHEF_OBS_METRICS_H_
