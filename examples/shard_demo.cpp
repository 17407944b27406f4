/// \file
/// Distributed-sharding quickstart (see README "Distributed sharding"):
/// run one batch over multiple shard workers behind a coordinator, in
/// process via loopback transports — the same protocol `chef_shard
/// --coordinator` speaks to worker subprocesses over pipes.
///
/// Build & run:
///   cmake -B build -S . && cmake --build build -j
///   ./build/shard_demo
///
/// For the multi-process version of the same run:
///   ./build/chef_shard --coordinator --workers 2 --report report.json

#include <cstdio>

#include "shard/coordinator.h"

int
main()
{
    using namespace chef::shard;
    using chef::service::JobResult;
    using chef::service::JobSpec;
    using chef::service::JobStatusName;

    // A duplicate-skewed batch: several copies of one workload plus a
    // diverse tail — the shape where cross-shard dedup has work to do.
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const char* id : {"py/argparse", "py/argparse", "py/argparse",
                           "py/simplejson", "lua/cliargs", "lua/haml"}) {
        JobSpec spec;
        spec.workload = id;
        spec.label = std::string(id) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = 25;
        spec.options.max_seconds = 10.0;
        jobs.push_back(std::move(spec));
    }

    // The coordinator partitions the batch round-robin, derives every
    // job's seed from its *global* index (so the partition cannot change
    // per-job results), gossips corpus fingerprints and yield snapshots
    // between shards while they explore, and merges the shard reports.
    ShardCoordinator::Options options;
    options.service.seed = 42;
    options.service.num_workers = 1;  // Worker threads per shard.
    ShardCoordinator coordinator(options);

    std::string error;
    if (!RunLoopbackShards(&coordinator, jobs, /*num_shards=*/2, &error)) {
        std::fprintf(stderr, "sharded run failed: %s\n", error.c_str());
        return 1;
    }

    for (const JobResult& result : coordinator.results()) {
        std::printf("job %zu %-16s %-9s tests=%zu corpus+%zu\n",
                    result.job_index, result.label.c_str(),
                    JobStatusName(result.status), result.num_test_cases,
                    result.corpus_inserted);
    }
    const ShardCoordinator::CrossShardStats& cross =
        coordinator.cross_shard();
    std::printf("merged corpus: %zu entries | gossip: %llu msgs, %llu "
                "fingerprints | dedup: %llu suppressed locally, %llu at "
                "merge\n",
                coordinator.corpus().size(),
                static_cast<unsigned long long>(cross.gossip_messages),
                static_cast<unsigned long long>(
                    cross.fingerprints_gossiped),
                static_cast<unsigned long long>(
                    cross.remote_duplicate_hits),
                static_cast<unsigned long long>(cross.merge_duplicates));

    // The merged report embeds the familiar single-service report under
    // "merged", plus per-shard stats and the cross-shard dedup counters.
    const std::string report = coordinator.RenderMergedReport();
    std::printf("merged report: %zu bytes of strict JSON\n",
                report.size());
    return 0;
}
