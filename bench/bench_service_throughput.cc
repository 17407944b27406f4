/// \file
/// Exploration-service throughput: jobs/sec at 1-8 workers over the
/// bundled minipy+minilua workload batch (every Table-3 package,
/// CHEF_BENCH_REPS repetitions with distinct spec seeds).
///
/// Besides the scaling table, the bench cross-checks that every worker
/// count discovers the same deduplicated set of high-level path
/// fingerprints (per-job sessions are seed-deterministic; the shared
/// corpus is order-independent as a set), and writes the 4-worker batch
/// as a JSON report (arg 1, default "service_report.json").

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/report.h"
#include "service/service.h"
#include "workloads/registry.h"

namespace {

std::vector<chef::service::JobSpec>
MakeBatch(int reps)
{
    std::vector<chef::service::JobSpec> jobs;
    for (int rep = 0; rep < reps; ++rep) {
        for (const std::string& id : chef::workloads::WorkloadIds()) {
            chef::service::JobSpec spec;
            spec.workload = id;
            spec.label = id + "#" + std::to_string(rep);
            spec.seed = static_cast<uint64_t>(rep) + 1;
            spec.options.max_runs = 25;
            // Bound work by run count only: a session truncated by its
            // own wall clock under CPU contention would break the
            // corpus-equality check across worker counts.
            spec.options.max_seconds = 1e9;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

}  // namespace

int
main(int argc, char** argv)
{
    using chef::service::ExplorationService;
    using chef::service::JobResult;

    const char* reps_env = std::getenv("CHEF_BENCH_REPS");
    const int reps = reps_env != nullptr ? std::atoi(reps_env) : 2;
    const chef::bench::BenchArgs args = chef::bench::ParseBenchArgs(
        argc, argv, chef::bench::BenchCli::kPath);
    const std::string report_path = args.report_path.empty()
                                        ? "service_report.json"
                                        : args.report_path;

    const std::vector<chef::service::JobSpec> jobs =
        MakeBatch(reps > 0 ? reps : 2);
    const unsigned cores = std::thread::hardware_concurrency();
    std::printf("service throughput: %zu jobs (%zu workloads x %d reps), "
                "%u hardware threads\n",
                jobs.size(), chef::workloads::WorkloadIds().size(),
                reps > 0 ? reps : 2, cores);
    if (cores < 4) {
        std::printf("NOTE: <4 hardware threads; worker scaling is "
                    "serialized by the OS and speedups reflect "
                    "scheduling, not the service.\n");
    }
    std::printf("\n");
    std::printf("%8s %10s %10s %10s %12s %8s\n", "workers", "wall_s",
                "jobs/s", "speedup", "corpus", "match");

    double baseline_jps = 0.0;
    double speedup_at_4 = 0.0;
    std::vector<chef::service::TestCorpus::Key> baseline_keys;
    bool all_match = true;

    for (const size_t workers : {1u, 2u, 4u, 8u}) {
        ExplorationService::Options options;
        options.num_workers = workers;
        options.seed = 1234;
        ExplorationService service(options);
        const std::vector<JobResult> results = service.RunBatch(jobs);

        size_t failed = 0;
        for (const JobResult& result : results) {
            if (result.status != chef::service::JobStatus::kCompleted) {
                ++failed;
            }
        }
        const double jps = service.stats().jobs_per_second;
        const std::vector<chef::service::TestCorpus::Key> keys =
            service.corpus().Keys();

        bool match = true;
        if (workers == 1) {
            baseline_jps = jps;
            baseline_keys = keys;
        } else {
            match = keys == baseline_keys;
            all_match = all_match && match;
        }
        const double speedup =
            baseline_jps > 0.0 ? jps / baseline_jps : 0.0;
        if (workers == 4) {
            speedup_at_4 = speedup;
            if (!chef::service::WriteJsonReportFile(
                    report_path, service.stats(), results,
                    service.corpus())) {
                std::fprintf(stderr, "failed to write %s\n",
                             report_path.c_str());
                return 1;
            }
        }

        std::printf("%8zu %10.2f %10.2f %9.2fx %12zu %8s\n", workers,
                    service.stats().wall_seconds, jps, speedup,
                    keys.size(), workers == 1 ? "-" : (match ? "yes" : "NO"));
        if (failed != 0) {
            std::fprintf(stderr, "  %zu jobs did not complete\n", failed);
        }
    }

    std::printf("\n4-worker speedup: %.2fx (target > 1.5x); corpus %s "
                "across worker counts\n",
                speedup_at_4, all_match ? "identical" : "DIVERGED");
    std::printf("report: %s\n", report_path.c_str());
    return all_match ? 0 : 1;
}
