#include "obs/timeseries.h"

#include <algorithm>
#include <array>
#include <cstdio>

#include "support/json.h"

namespace chef::obs {

namespace {

// Baseline position for a window ending at samples.back(): the newest
// sample with t <= t_end - window, else the oldest. Callers guarantee
// samples.size() >= 2.
size_t BaselinePosition(const std::vector<SeriesSample>& samples,
                        double window_seconds)
{
    const double cutoff = samples.back().t_seconds - window_seconds;
    size_t best = 0;
    for (size_t i = 0; i + 1 < samples.size(); ++i) {
        if (samples[i].t_seconds <= cutoff) {
            best = i;
        } else {
            break;
        }
    }
    return best;
}

// Counter delta between baseline and newest, clamped at 0, plus the
// elapsed time. Returns false when fewer than two samples or no time
// elapsed.
bool WindowDelta(const std::vector<SeriesSample>& samples,
                 const std::string& counter, double window_seconds,
                 uint64_t* delta, double* dt)
{
    if (samples.size() < 2) {
        return false;
    }
    const size_t base = BaselinePosition(samples, window_seconds);
    const SeriesSample& oldest = samples[base];
    const SeriesSample& newest = samples.back();
    *dt = newest.t_seconds - oldest.t_seconds;
    if (*dt <= 0.0) {
        return false;
    }
    const uint64_t before = oldest.metrics.CounterValue(counter);
    const uint64_t after = newest.metrics.CounterValue(counter);
    *delta = after > before ? after - before : 0;
    return true;
}

}  // namespace

int64_t SnapshotGauge(const MetricsSnapshot& snapshot,
                      const std::string& name, int64_t fallback)
{
    for (const auto& [gauge_name, value] : snapshot.gauges) {
        if (gauge_name == name) {
            return value;
        }
    }
    return fallback;
}

double WindowedCounterRate(const std::vector<SeriesSample>& samples,
                           const std::string& counter, double window_seconds)
{
    uint64_t delta = 0;
    double dt = 0.0;
    if (!WindowDelta(samples, counter, window_seconds, &delta, &dt)) {
        return 0.0;
    }
    return static_cast<double>(delta) / dt;
}

double WindowedHistogramSumRate(const std::vector<SeriesSample>& samples,
                                const std::string& histogram,
                                double window_seconds)
{
    if (samples.size() < 2) {
        return 0.0;
    }
    const size_t base = BaselinePosition(samples, window_seconds);
    const SeriesSample& oldest = samples[base];
    const SeriesSample& newest = samples.back();
    const double dt = newest.t_seconds - oldest.t_seconds;
    if (dt <= 0.0) {
        return 0.0;
    }
    const HistogramSnapshot* after = newest.metrics.FindHistogram(histogram);
    if (after == nullptr) {
        return 0.0;
    }
    const HistogramSnapshot* before = oldest.metrics.FindHistogram(histogram);
    const uint64_t sum_before = before == nullptr ? 0 : before->sum_nanos;
    const uint64_t delta =
        after->sum_nanos > sum_before ? after->sum_nanos - sum_before : 0;
    return static_cast<double>(delta) / 1e9 / dt;
}

bool WindowedHistogramDelta(const std::vector<SeriesSample>& samples,
                            const std::string& histogram,
                            double window_seconds, HistogramSnapshot* delta)
{
    if (samples.size() < 2) {
        return false;
    }
    const size_t base = BaselinePosition(samples, window_seconds);
    const HistogramSnapshot* after =
        samples.back().metrics.FindHistogram(histogram);
    if (after == nullptr) {
        return false;
    }
    const HistogramSnapshot* before =
        samples[base].metrics.FindHistogram(histogram);
    HistogramSnapshot out;
    out.name = after->name;
    const uint64_t count_before = before == nullptr ? 0 : before->count;
    if (after->count <= count_before) {
        return false;
    }
    out.count = after->count - count_before;
    const uint64_t sum_before = before == nullptr ? 0 : before->sum_nanos;
    out.sum_nanos =
        after->sum_nanos > sum_before ? after->sum_nanos - sum_before : 0;
    // Min/max are cumulative in the source snapshots; the window keeps
    // the newest cumulative values so QuantileSeconds stays clamped to
    // a real observed latency (conservative, biased high).
    out.min_nanos = after->min_nanos;
    out.max_nanos = after->max_nanos;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
        const uint64_t bucket_before =
            before == nullptr ? 0 : before->buckets[b];
        out.buckets[b] = after->buckets[b] > bucket_before
                             ? after->buckets[b] - bucket_before
                             : 0;
    }
    *delta = std::move(out);
    return true;
}

// --- TimeSeriesRecorder -----------------------------------------------

TimeSeriesRecorder::TimeSeriesRecorder(Options options)
    : options_(options), epoch_(std::chrono::steady_clock::now())
{
    if (options_.interval_seconds <= 0.0) {
        options_.interval_seconds = 0.1;
    }
}

double TimeSeriesRecorder::ElapsedSeconds() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

void TimeSeriesRecorder::SampleNow(const MetricsRegistry& registry)
{
    MetricsSnapshot snapshot = registry.Snapshot();
    const double t = ElapsedSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    RecordLocked(t, std::move(snapshot));
}

void TimeSeriesRecorder::Record(double t_seconds, MetricsSnapshot snapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    RecordLocked(t_seconds, std::move(snapshot));
}

void TimeSeriesRecorder::RecordLocked(double t_seconds,
                                      MetricsSnapshot snapshot)
{
    SeriesSample sample;
    sample.index = next_index_++;
    sample.t_seconds = std::max(t_seconds, last_sample_t_);
    sample.metrics = std::move(snapshot);
    last_sample_t_ = sample.t_seconds;
    ring_.push_back(std::move(sample));
    if (ring_.size() > kSeriesRingCapacity) {
        ring_.pop_front();
    }
}

uint64_t TimeSeriesRecorder::last_index() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_index_ - 1;
}

std::vector<SeriesSample> TimeSeriesRecorder::SamplesSince(
    uint64_t since_index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SeriesSample> out;
    for (const SeriesSample& sample : ring_) {
        if (sample.index > since_index) {
            out.push_back(sample);
        }
    }
    return out;
}

// --- ClusterSeries ----------------------------------------------------

size_t ClusterSeries::Update(const std::string& source,
                             const std::vector<SeriesSample>& samples)
{
    std::vector<SeriesSample>& series = series_[source];
    size_t fresh = 0;
    for (const SeriesSample& sample : samples) {
        if (series.empty() || sample.index > series.back().index) {
            series.push_back(sample);
            ++fresh;
            continue;
        }
        auto it = std::lower_bound(
            series.begin(), series.end(), sample.index,
            [](const SeriesSample& a, uint64_t index) {
                return a.index < index;
            });
        if (it != series.end() && it->index == sample.index) {
            continue;  // Re-delivered sample: idempotent.
        }
        series.insert(it, sample);
        ++fresh;
    }
    if (series.size() > kMaxSamplesPerSource) {
        // Thin the older half: drop every second sample, keeping curve
        // shape while bounding retention.
        std::vector<SeriesSample> thinned;
        thinned.reserve(series.size() * 3 / 4 + 1);
        const size_t half = series.size() / 2;
        for (size_t i = 0; i < series.size(); ++i) {
            if (i >= half || i % 2 == 0) {
                thinned.push_back(std::move(series[i]));
            }
        }
        series = std::move(thinned);
    }
    return fresh;
}

void ClusterSeries::Clear() { series_.clear(); }

std::vector<std::string> ClusterSeries::Sources() const
{
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [source, samples] : series_) {
        (void)samples;
        out.push_back(source);
    }
    return out;
}

const std::vector<SeriesSample>* ClusterSeries::SeriesFor(
    const std::string& source) const
{
    auto it = series_.find(source);
    return it == series_.end() ? nullptr : &it->second;
}

size_t ClusterSeries::total_samples() const
{
    size_t total = 0;
    for (const auto& [source, samples] : series_) {
        (void)source;
        total += samples.size();
    }
    return total;
}

double ClusterSeries::LatestTimeSeconds() const
{
    double latest = 0.0;
    for (const auto& [source, samples] : series_) {
        (void)source;
        if (!samples.empty()) {
            latest = std::max(latest, samples.back().t_seconds);
        }
    }
    return latest;
}

MetricsSnapshot ClusterSeries::MergedLatest() const
{
    MetricsSnapshot merged;
    for (const auto& [source, samples] : series_) {
        (void)source;
        if (!samples.empty()) {
            merged.MergeFrom(samples.back().metrics);
        }
    }
    return merged;
}

std::vector<std::pair<double, uint64_t>> ClusterSeries::MergedCounterCurve(
    const std::string& counter) const
{
    // Per-source step functions (t -> cumulative value).
    struct Walker {
        const std::vector<SeriesSample>* samples;
        size_t pos = 0;
        uint64_t current = 0;
    };
    std::vector<Walker> walkers;
    std::vector<double> times;
    for (const auto& [source, samples] : series_) {
        (void)source;
        if (samples.empty()) {
            continue;
        }
        walkers.push_back(Walker{&samples, 0, 0});
        for (const SeriesSample& sample : samples) {
            times.push_back(sample.t_seconds);
        }
    }
    std::sort(times.begin(), times.end());
    times.erase(std::unique(times.begin(), times.end()), times.end());

    std::vector<std::pair<double, uint64_t>> curve;
    curve.reserve(times.size());
    for (double t : times) {
        uint64_t total = 0;
        for (Walker& walker : walkers) {
            const std::vector<SeriesSample>& samples = *walker.samples;
            while (walker.pos < samples.size() &&
                   samples[walker.pos].t_seconds <= t) {
                walker.current =
                    samples[walker.pos].metrics.CounterValue(counter);
                ++walker.pos;
            }
            total += walker.current;
        }
        curve.emplace_back(t, total);
    }
    return curve;
}

// --- Serialization ----------------------------------------------------

void WriteSeriesSamples(support::JsonWriter& json,
                        const std::vector<SeriesSample>& samples)
{
    json.BeginArray();
    for (const SeriesSample& sample : samples) {
        json.BeginObject();
        json.Key("index");
        json.Value(sample.index);
        json.Key("t_seconds");
        json.Value(sample.t_seconds);
        json.Key("metrics");
        WriteMetricsSnapshot(json, sample.metrics);
        json.EndObject();
    }
    json.EndArray();
}

bool DecodeSeriesSamples(const support::JsonValue& array,
                         std::vector<SeriesSample>* samples,
                         std::string* error)
{
    if (array.kind != support::JsonValue::Kind::kArray) {
        if (error != nullptr) {
            *error = "series: expected array";
        }
        return false;
    }
    std::vector<SeriesSample> out;
    out.reserve(array.items.size());
    for (const support::JsonValue& item : array.items) {
        SeriesSample sample;
        if (!item.GetUint64("index", &sample.index) || sample.index == 0) {
            if (error != nullptr) {
                *error = "series sample: missing or zero index";
            }
            return false;
        }
        if (!item.GetDouble("t_seconds", &sample.t_seconds)) {
            if (error != nullptr) {
                *error = "series sample: missing t_seconds";
            }
            return false;
        }
        const support::JsonValue* metrics = item.Find("metrics");
        if (metrics == nullptr ||
            !DecodeMetricsSnapshot(*metrics, &sample.metrics, error)) {
            if (error != nullptr && metrics == nullptr) {
                *error = "series sample: missing metrics";
            }
            return false;
        }
        out.push_back(std::move(sample));
    }
    *samples = std::move(out);
    return true;
}

std::string RenderClusterSeriesJson(const ClusterSeries& series)
{
    support::JsonWriter json;
    json.BeginObject();
    json.Key("series");
    json.BeginObject();
    for (const std::string& source : series.Sources()) {
        json.Key(source.c_str());
        WriteSeriesSamples(json, *series.SeriesFor(source));
    }
    json.EndObject();
    json.EndObject();
    return json.Take();
}

std::string RenderSeriesSampleNdjson(const ClusterSeries& series,
                                     const std::string& source,
                                     const SeriesSample& sample,
                                     double window_seconds)
{
    // Rates are computed over this source's samples up to (and
    // including) the reported one, so a drained backlog renders the
    // same lines that live streaming would have.
    std::vector<SeriesSample> prefix;
    if (const std::vector<SeriesSample>* samples = series.SeriesFor(source)) {
        for (const SeriesSample& s : *samples) {
            if (s.index <= sample.index) {
                prefix.push_back(s);
            }
        }
    }
    if (prefix.empty() || prefix.back().index != sample.index) {
        prefix.push_back(sample);
    }

    support::JsonWriter json;
    json.BeginObject();
    json.Key("source");
    json.Value(source);
    json.Key("index");
    json.Value(sample.index);
    json.Key("t_seconds");
    json.Value(sample.t_seconds);
    json.Key("jobs_per_second");
    json.Value(WindowedCounterRate(prefix, kJobsFinishedCounter,
                                   window_seconds));
    json.Key("fingerprints_per_second");
    json.Value(WindowedCounterRate(prefix, kFingerprintsNewCounter,
                                   window_seconds));
    json.Key("solver_seconds_per_second");
    json.Value(WindowedHistogramSumRate(prefix, kSolverSolveHistogram,
                                        window_seconds));
    HistogramSnapshot delta;
    json.Key("solver_p95_seconds");
    json.Value(WindowedHistogramDelta(prefix, kSolverSolveHistogram,
                                      window_seconds, &delta)
                   ? delta.QuantileSeconds(0.95)
                   : 0.0);
    json.Key("corpus_size");
    json.Value(
        static_cast<uint64_t>(std::max<int64_t>(
            0, SnapshotGauge(sample.metrics, kCorpusSizeGauge))));
    json.Key("plateau_cancels");
    json.Value(sample.metrics.CounterValue(kPlateauCancelsCounter));
    json.Key("cluster");
    json.BeginObject();
    const MetricsSnapshot merged = series.MergedLatest();
    json.Key("sources");
    json.Value(series.Sources().size());
    json.Key("jobs_finished");
    json.Value(merged.CounterValue(kJobsFinishedCounter));
    json.Key("fingerprints_total");
    json.Value(merged.CounterValue(kFingerprintsNewCounter));
    json.EndObject();
    json.EndObject();
    std::string line = json.Take();
    line += '\n';
    return line;
}

std::string RenderCoverageCurvesCsv(const ClusterSeries& series)
{
    std::string out = "workload,t_seconds,jobs_finished,new_fingerprints\n";
    const MetricsSnapshot merged = series.MergedLatest();

    // (display name, fingerprint counter, jobs counter) per workload;
    // "__all__" carries the unsuffixed cluster totals.
    std::vector<std::array<std::string, 3>> curves;
    const std::string prefix = std::string(kFingerprintsNewCounter) + ".";
    if (merged.CounterValue(kFingerprintsNewCounter) > 0 ||
        merged.CounterValue(kJobsFinishedCounter) > 0) {
        curves.push_back({"__all__", kFingerprintsNewCounter,
                          kJobsFinishedCounter});
    }
    for (const auto& [name, value] : merged.counters) {
        (void)value;
        if (name.size() > prefix.size() &&
            name.compare(0, prefix.size(), prefix) == 0) {
            const std::string workload = name.substr(prefix.size());
            curves.push_back(
                {workload, name,
                 std::string(kJobsFinishedCounter) + "." + workload});
        }
    }

    char row[256];
    for (const auto& curve : curves) {
        const auto fingerprints = series.MergedCounterCurve(curve[1]);
        const auto jobs = series.MergedCounterCurve(curve[2]);
        size_t jobs_pos = 0;
        uint64_t jobs_at_t = 0;
        for (const auto& [t, value] : fingerprints) {
            while (jobs_pos < jobs.size() && jobs[jobs_pos].first <= t) {
                jobs_at_t = jobs[jobs_pos].second;
                ++jobs_pos;
            }
            std::snprintf(row, sizeof(row),
                          "%s,%.6f,%llu,%llu\n", curve[0].c_str(), t,
                          static_cast<unsigned long long>(jobs_at_t),
                          static_cast<unsigned long long>(value));
            out += row;
        }
    }
    return out;
}

}  // namespace chef::obs
