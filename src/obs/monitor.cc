#include "obs/monitor.h"

#include <cstdio>

namespace chef::obs {

std::string RenderMonitorFrame(const ClusterSeries& series,
                               double window_seconds)
{
    char line[256];
    std::string out;
    const MetricsSnapshot merged = series.MergedLatest();
    std::snprintf(line, sizeof(line),
                  "CHEF cluster monitor  t=%.1fs  shards=%zu  samples=%zu  "
                  "jobs=%llu  fingerprints=%llu  (window %.1fs)\n",
                  series.LatestTimeSeconds(), series.Sources().size(),
                  series.total_samples(),
                  static_cast<unsigned long long>(
                      merged.CounterValue(kJobsFinishedCounter)),
                  static_cast<unsigned long long>(
                      merged.CounterValue(kFingerprintsNewCounter)),
                  window_seconds);
    out += line;
    std::snprintf(line, sizeof(line),
                  "%-10s %8s %8s %10s %10s %8s %8s %-8s\n",
                  "source", "jobs/s", "fp/s", "solv-s/s", "p95(s)",
                  "corpus", "cancels", "state");
    out += line;
    for (const std::string& source : series.Sources()) {
        const std::vector<SeriesSample>& samples = *series.SeriesFor(source);
        if (samples.empty()) {
            continue;
        }
        const SeriesSample& latest = samples.back();
        const double jobs_rate =
            WindowedCounterRate(samples, kJobsFinishedCounter,
                                window_seconds);
        const double fp_rate = WindowedCounterRate(
            samples, kFingerprintsNewCounter, window_seconds);
        const double solver_rate = WindowedHistogramSumRate(
            samples, kSolverSolveHistogram, window_seconds);
        HistogramSnapshot delta;
        const double p95 =
            WindowedHistogramDelta(samples, kSolverSolveHistogram,
                                   window_seconds, &delta)
                ? delta.QuantileSeconds(0.95)
                : 0.0;
        const char* state = samples.size() < 2 ? "warming"
                            : fp_rate > 0.0    ? "climbing"
                                               : "flat";
        std::snprintf(
            line, sizeof(line),
            "%-10s %8.2f %8.2f %10.3f %10.4f %8lld %8llu %-8s\n",
            source.c_str(), jobs_rate, fp_rate, solver_rate, p95,
            static_cast<long long>(
                SnapshotGauge(latest.metrics, kCorpusSizeGauge)),
            static_cast<unsigned long long>(
                latest.metrics.CounterValue(kPlateauCancelsCounter)),
            state);
        out += line;
    }
    return out;
}

std::string RenderMonitorFrame(const ClusterSeries& series,
                               double window_seconds,
                               const AttributionSnapshot* attribution,
                               size_t top_locations)
{
    std::string out = RenderMonitorFrame(series, window_seconds);
    if (attribution != nullptr && !attribution->empty()) {
        out += "\n";
        out += RenderHotLocations(*attribution, top_locations);
    }
    return out;
}

}  // namespace chef::obs
