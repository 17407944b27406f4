#ifndef CHEF_OBS_MONITOR_H_
#define CHEF_OBS_MONITOR_H_

/// \file
/// The live cluster monitor: a pure function from a merged
/// ClusterSeries to one dashboard frame (plain text, fixed-width
/// columns). chef_shard --monitor repaints it in place with an ANSI
/// home+clear prefix; keeping the renderer side-effect-free makes the
/// dashboard testable without a terminal.

#include <string>

#include "obs/attribution.h"
#include "obs/timeseries.h"

namespace chef::obs {

/// Renders one monitor frame: a header line (cluster time, sources,
/// sample count, merged totals) plus one row per shard with windowed
/// jobs/s, new-fingerprints/s, solver-seconds/s, shared-cache hit rate,
/// solver p95 over the window, corpus size, plateau cancels, states in
/// flight in parallel sessions, and a coarse state tag ("warming" with
/// < 2 samples, "climbing" while the fingerprint rate is positive, "flat"
/// once it hits zero).
std::string RenderMonitorFrame(const ClusterSeries& series,
                               double window_seconds);

/// Same frame plus a "hot locations" panel (obs::RenderHotLocations on
/// \p attribution): top locations by solver cost and by fingerprint
/// yield per solver second. \p attribution may be null or empty — the
/// panel is simply omitted, so callers can pass whatever the cluster
/// view currently holds.
std::string RenderMonitorFrame(const ClusterSeries& series,
                               double window_seconds,
                               const AttributionSnapshot* attribution,
                               size_t top_locations = 5);

}  // namespace chef::obs

#endif  // CHEF_OBS_MONITOR_H_
