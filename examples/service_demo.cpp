/// \file
/// Exploration-service quickstart (see README "Running the exploration
/// service"): submit a declarative batch of symbolic-test jobs, run them
/// on a worker pool, and consume the aggregated JSON report.
///
/// Build & run:
///   cmake -B build -S . && cmake --build build -j
///   ./build/service_demo

#include <cstdio>

#include "service/report.h"
#include "service/service.h"
#include "workloads/registry.h"

int
main(int argc, char** argv)
{
    using namespace chef::service;

    if (argc > 1) {
        std::fprintf(stderr, "usage: %s\n", argv[0]);
        return 2;
    }

    // 1. Describe the batch declaratively: workload ids from the registry
    //    plus a per-session run and time budget. No closures, no interpreter
    //    setup — the service resolves and instantiates everything on its
    //    worker threads.
    std::vector<JobSpec> jobs;
    for (const char* id : {"py/argparse", "py/simplejson", "lua/cliargs",
                           "lua/JSON"}) {
        JobSpec spec;
        spec.workload = id;
        spec.options.max_runs = 20;
        spec.options.max_seconds = 10.0;
        jobs.push_back(std::move(spec));
    }

    // 2. Run them on 2 workers with a service-wide wall budget. One
    //    Engine per job; results aggregate into the shared deduplicated
    //    corpus. Dispatch is yield-weighted by default (workloads whose
    //    corpus is still growing run first); streamed events arrive on a
    //    dispatcher thread while RunBatch blocks, so a long batch can
    //    feed a dashboard — here they just print as they land.
    ExplorationService::Options options;
    options.num_workers = 2;
    options.seed = 42;
    options.max_total_seconds = 60.0;
    options.on_job_event = [](const JobEvent& event) {
        if (event.kind != JobEvent::Kind::kJobCompleted) {
            return;
        }
        std::printf("[stream] %-14s %-9s corpus+%-3zu (%zu/%zu done, "
                    "corpus %zu, t=%.2fs)\n",
                    event.label.c_str(), JobStatusName(event.status),
                    event.corpus_inserted, event.jobs_finished,
                    event.jobs_total, event.corpus_size,
                    event.elapsed_seconds);
    };
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch(jobs);
    std::printf("\n");

    // 3. Per-job summary.
    for (const JobResult& result : results) {
        std::printf(
            "%-14s %-9s seed=%016llx  runs=%-4zu relevant=%-3zu "
            "corpus+=%zu\n",
            result.label.c_str(), JobStatusName(result.status),
            static_cast<unsigned long long>(result.seed_used),
            result.num_test_cases, result.num_relevant_test_cases,
            result.corpus_inserted);
    }
    const ServiceStats& stats = service.stats();
    std::printf("\n%zu jobs in %.2fs (%.2f jobs/s), %llu HL paths, "
                "corpus size %zu\n\n",
                stats.jobs_completed, stats.wall_seconds,
                stats.jobs_per_second,
                static_cast<unsigned long long>(stats.hl_paths),
                stats.corpus_size);

    // 4. The JSON report (capped corpus, no raw inputs) is what external
    //    tooling consumes; here it just goes to stdout.
    ReportOptions report_options;
    report_options.max_corpus_entries = 3;
    report_options.include_inputs = false;
    std::printf("%s\n",
                RenderJsonReport(stats, results, service.corpus(),
                                 report_options)
                    .c_str());
    return 0;
}
