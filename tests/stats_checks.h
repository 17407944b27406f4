#ifndef CHEF_TESTS_STATS_CHECKS_H_
#define CHEF_TESTS_STATS_CHECKS_H_

/// \file
/// Assertions shared by the service, shard and fault tests: every
/// ServiceStats view (a service's, a shard's, a cluster's) is read from a
/// metrics snapshot, and these checks hold it to the per-job results it
/// summarizes and to the snapshot it was read from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "service/job.h"
#include "service/service.h"
#include "shard/coordinator.h"

namespace chef::checks {

/// Every count of \p actual equals \p expected's (the timing fields and
/// the ones the batch owner sets are not compared).
inline void
ExpectSameCounts(const service::ServiceStats& actual,
                 const service::ServiceStats& expected)
{
    EXPECT_EQ(actual.jobs_submitted, expected.jobs_submitted);
    EXPECT_EQ(actual.jobs_completed, expected.jobs_completed);
    EXPECT_EQ(actual.jobs_cancelled, expected.jobs_cancelled);
    EXPECT_EQ(actual.jobs_plateau_cancelled, expected.jobs_plateau_cancelled);
    EXPECT_EQ(actual.jobs_failed, expected.jobs_failed);
    EXPECT_EQ(actual.ll_paths, expected.ll_paths);
    EXPECT_EQ(actual.hl_paths, expected.hl_paths);
    EXPECT_EQ(actual.hangs, expected.hangs);
    EXPECT_EQ(actual.solver_queries, expected.solver_queries);
    EXPECT_EQ(actual.solver_sliced_queries, expected.solver_sliced_queries);
    EXPECT_EQ(actual.solver_incremental_sat_calls,
              expected.solver_incremental_sat_calls);
    EXPECT_EQ(actual.solver_clauses_loaded, expected.solver_clauses_loaded);
    EXPECT_EQ(actual.events_delivered, expected.events_delivered);
}

/// \p stats totals exactly the per-job counts of \p results, and its
/// solver time their solver times within \p seconds_tolerance.
inline void
ExpectStatsTotalResults(const service::ServiceStats& stats,
                        const std::vector<service::JobResult>& results,
                        double seconds_tolerance)
{
    size_t completed = 0;
    uint64_t ll_paths = 0;
    uint64_t hl_paths = 0;
    uint64_t hangs = 0;
    uint64_t queries = 0;
    uint64_t sliced = 0;
    uint64_t incremental = 0;
    uint64_t clauses = 0;
    double solver_seconds = 0.0;
    for (const service::JobResult& result : results) {
        completed += result.status == service::JobStatus::kCompleted;
        ll_paths += result.engine_stats.ll_paths;
        hl_paths += result.engine_stats.hl_paths;
        hangs += result.engine_stats.hangs;
        queries += result.engine_stats.solver_queries;
        sliced += result.engine_stats.solver_sliced_queries;
        incremental += result.engine_stats.solver_incremental_sat_calls;
        clauses += result.engine_stats.solver_clauses_loaded;
        solver_seconds += result.engine_stats.solver_seconds;
    }
    EXPECT_EQ(stats.jobs_submitted, results.size());
    EXPECT_EQ(stats.jobs_completed, completed);
    EXPECT_EQ(stats.ll_paths, ll_paths);
    EXPECT_EQ(stats.hl_paths, hl_paths);
    EXPECT_EQ(stats.hangs, hangs);
    EXPECT_EQ(stats.solver_queries, queries);
    EXPECT_GT(stats.solver_queries, 0u);
    EXPECT_EQ(stats.solver_sliced_queries, sliced);
    EXPECT_EQ(stats.solver_incremental_sat_calls, incremental);
    EXPECT_EQ(stats.solver_clauses_loaded, clauses);
    EXPECT_NEAR(stats.solver_seconds, solver_seconds, seconds_tolerance);
}

/// The coordinator's views after Run: merged_stats() totals results(),
/// each shard's stats are its telemetry's and sum to the merged counts,
/// and fault() / cross_shard() are the coordinator's counters.
inline void
ExpectCoordinatorViewsAgree(const shard::ShardCoordinator& coordinator)
{
    // Per-job solver seconds cross the wire with six decimals.
    const std::vector<service::JobResult>& results = coordinator.results();
    ExpectStatsTotalResults(coordinator.merged_stats(), results,
                            1e-6 * static_cast<double>(results.size() + 1));

    obs::MetricsSnapshot shard_telemetry;
    double wall_max = 0.0;
    for (const shard::ShardCoordinator::ShardOutcome& shard :
         coordinator.shards()) {
        SCOPED_TRACE("shard " + std::to_string(shard.shard_id));
        const service::ServiceStats from_telemetry =
            service::StatsFromMetrics(shard.telemetry);
        ExpectSameCounts(shard.stats, from_telemetry);
        EXPECT_EQ(shard.stats.solver_seconds, from_telemetry.solver_seconds);
        shard_telemetry.MergeFrom(shard.telemetry);
        wall_max = std::max(wall_max, shard.stats.wall_seconds);
    }
    ExpectSameCounts(coordinator.merged_stats(),
                     service::StatsFromMetrics(shard_telemetry));
    EXPECT_EQ(coordinator.merged_stats().wall_seconds, wall_max);
    EXPECT_EQ(coordinator.merged_stats().corpus_size,
              coordinator.corpus().size());

    const obs::MetricsSnapshot& own = coordinator.coordinator_telemetry();
    const shard::ShardCoordinator::FaultStats fault = coordinator.fault();
    EXPECT_EQ(fault.deaths, own.CounterValue("shard.deaths_total"));
    EXPECT_EQ(fault.jobs_requeued,
              own.CounterValue("shard.jobs_requeued_total"));
    EXPECT_EQ(fault.respawns, own.CounterValue("shard.respawns_total"));

    const obs::MetricsSnapshot& cluster = coordinator.cluster_telemetry();
    const shard::ShardCoordinator::CrossShardStats cross =
        coordinator.cross_shard();
    EXPECT_EQ(cross.gossip_messages,
              own.CounterValue("shard.gossip_messages"));
    EXPECT_EQ(cross.fingerprints_gossiped,
              own.CounterValue("shard.fingerprints_gossiped"));
    EXPECT_EQ(cross.merge_duplicates,
              own.CounterValue("shard.merge_duplicates"));
    EXPECT_EQ(cross.remote_duplicate_hits,
              cluster.CounterValue("corpus.remote_duplicate_hits"));
    EXPECT_EQ(cross.jobs_suppressed,
              coordinator.merged_stats().jobs_plateau_cancelled);
}

}  // namespace chef::checks

#endif  // CHEF_TESTS_STATS_CHECKS_H_
