#ifndef CHEF_OBS_OBS_H_
#define CHEF_OBS_OBS_H_

/// \file
/// ObsContext: the handle every layer takes to participate in
/// telemetry. A pair of non-owning pointers — null members mean "that
/// facility is off", and the instrumentation sites are written so the
/// null case costs a single branch. Default-constructed ObsContext is
/// fully disabled, which is the default everywhere: telemetry is strictly
/// opt-in per run.
///
/// Ownership: whoever creates the run scope owns the registry and
/// tracer (a shard worker per RunRequest, chef_shard's coordinator path
/// per invocation, a test per fixture) and keeps them alive across the
/// run; everything downstream copies the context by value.

#include "obs/metrics.h"
#include "obs/trace.h"

namespace chef::obs {

class AttributionProfiler;
class TimeSeriesRecorder;

struct ObsContext {
    MetricsRegistry* metrics = nullptr;
    PhaseTracer* tracer = nullptr;
    /// Interval sampler over `metrics` (see obs/timeseries.h). When
    /// set alongside `metrics`, ExplorationService::RunBatch runs a
    /// sampler thread at the recorder's cadence for the life of the
    /// batch.
    TimeSeriesRecorder* timeseries = nullptr;
    /// Per-location cost/yield accounting (see obs/attribution.h).
    /// Installed per job by ExplorationService::RunJob; Solver::Solve
    /// charges wall time to the ambient location through it.
    AttributionProfiler* attribution = nullptr;

    bool metrics_enabled() const { return metrics != nullptr; }
    bool tracing_enabled() const
    {
        return tracer != nullptr && tracer->enabled();
    }
    bool timeseries_enabled() const
    {
        return timeseries != nullptr && metrics != nullptr;
    }
    bool attribution_enabled() const { return attribution != nullptr; }
};

}  // namespace chef::obs

#endif  // CHEF_OBS_OBS_H_
