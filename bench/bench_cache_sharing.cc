/// \file
/// Cross-worker solver-cache sharing: same-workload batch speedup.
///
/// Runs one batch of identical-workload jobs twice — sharing off (the PR 1
/// baseline) and sharing on — with the same service seed and ≥4 workers,
/// then compares total solver time and reports the shared-cache hit rate.
/// Both configurations' full service reports are embedded in one JSON
/// document (arg: report path, default "BENCH_cache_sharing.json").
///
/// Usage: bench_cache_sharing [--smoke] [report.json]
///   --smoke   tiny per-job budgets, for CI; skips the (noise-sensitive)
///             solver-time regression check and only enforces hit rate.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "service/report.h"
#include "service/service.h"

namespace {

using chef::service::ExplorationService;
using chef::service::JobResult;
using chef::service::JobSpec;
using chef::service::ServiceStats;

constexpr const char* kWorkload = "py/argparse";

std::vector<JobSpec>
MakeSameWorkloadBatch(int jobs, uint64_t max_runs)
{
    std::vector<JobSpec> batch;
    for (int i = 0; i < jobs; ++i) {
        JobSpec spec;
        spec.workload = kWorkload;
        spec.label = std::string(kWorkload) + "#" + std::to_string(i);
        spec.seed = static_cast<uint64_t>(i) + 1;
        spec.options.max_runs = max_runs;
        // Bound work by run count so both configurations do comparable
        // amounts of exploration.
        spec.options.max_seconds = 1e9;
        spec.options.collect_timeline = false;
        batch.push_back(std::move(spec));
    }
    return batch;
}

struct ConfigOutcome {
    ServiceStats stats;
    std::string report_json;
    size_t failed = 0;
};

ConfigOutcome
RunConfig(const std::vector<JobSpec>& jobs, bool share)
{
    ExplorationService::Options options;
    options.num_workers = 4;
    options.seed = 2014;
    options.share_solver_cache = share;
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch(jobs);

    ConfigOutcome outcome;
    outcome.stats = service.stats();
    outcome.report_json = chef::service::RenderJsonReport(
        service.stats(), results, service.corpus());
    for (const JobResult& result : results) {
        if (result.status != chef::service::JobStatus::kCompleted) {
            ++outcome.failed;
        }
    }
    return outcome;
}

}  // namespace

int
main(int argc, char** argv)
{
    const chef::bench::SmokeArgs args =
        chef::bench::ParseSmokeArgs(argc, argv);
    const bool smoke = args.smoke;
    std::string report_path = args.report_path;
    chef::bench::BenchReport bench("cache_sharing", smoke);
    if (report_path.empty()) {
        report_path = bench.DefaultPath();
    }

    const int num_jobs = smoke ? 8 : 12;
    const uint64_t max_runs = smoke ? 10 : 50;
    const std::vector<JobSpec> jobs =
        MakeSameWorkloadBatch(num_jobs, max_runs);
    std::printf("cache sharing: %d x %s, %lu runs/job, 4 workers%s\n\n",
                num_jobs, kWorkload,
                static_cast<unsigned long>(max_runs),
                smoke ? " [smoke]" : "");

    const ConfigOutcome off = RunConfig(jobs, false);
    const ConfigOutcome on = RunConfig(jobs, true);

    const ServiceStats& s_off = off.stats;
    const ServiceStats& s_on = on.stats;
    const uint64_t shared_lookups =
        s_on.shared_cache_hits + s_on.shared_cache_misses;
    const double hit_rate =
        shared_lookups > 0
            ? static_cast<double>(s_on.shared_cache_hits) /
                  static_cast<double>(shared_lookups)
            : 0.0;
    const double solver_speedup =
        s_on.solver_seconds > 0.0
            ? s_off.solver_seconds / s_on.solver_seconds
            : 0.0;

    std::printf("%22s %14s %14s\n", "", "sharing_off", "sharing_on");
    std::printf("%22s %14.3f %14.3f\n", "solver_seconds",
                s_off.solver_seconds, s_on.solver_seconds);
    std::printf("%22s %14.3f %14.3f\n", "wall_seconds",
                s_off.wall_seconds, s_on.wall_seconds);
    std::printf("%22s %14lu %14lu\n", "solver_queries",
                static_cast<unsigned long>(s_off.solver_queries),
                static_cast<unsigned long>(s_on.solver_queries));
    std::printf("%22s %14s %14lu\n", "shared_cache_hits", "-",
                static_cast<unsigned long>(s_on.shared_cache_hits));
    std::printf("%22s %14s %14lu\n", "shared_model_hits", "-",
                static_cast<unsigned long>(s_on.shared_cache_model_hits));
    std::printf("%22s %14s %14lu\n", "shared_cache_entries", "-",
                static_cast<unsigned long>(s_on.shared_cache_entries));
    std::printf("\nshared hit rate: %.1f%%; solver-time speedup: %.2fx\n",
                hit_rate * 100.0, solver_speedup);

    bool ok = true;
    if (off.failed != 0 || on.failed != 0) {
        std::fprintf(stderr,
                     "FAIL: jobs did not complete (sharing off: %zu, "
                     "on: %zu)\n",
                     off.failed, on.failed);
        ok = false;
    }
    if (s_on.shared_cache_hits == 0) {
        std::fprintf(stderr,
                     "FAIL: shared cache saw no hits on a same-workload "
                     "batch\n");
        ok = false;
    }
    if (!smoke && s_on.solver_seconds >= s_off.solver_seconds) {
        // Full mode treats this as a failure; smoke batches are too
        // small for stable timing.
        std::fprintf(stderr,
                     "FAIL: sharing did not reduce total solver time "
                     "(%.3fs -> %.3fs)\n",
                     s_off.solver_seconds, s_on.solver_seconds);
        ok = false;
    }

    bench.Config("workload", kWorkload);
    bench.Config("jobs", num_jobs);
    bench.Config("max_runs", max_runs);
    bench.Config("workers", 4);
    bench.Metric("shared_hit_rate", hit_rate);
    bench.Metric("solver_time_speedup", solver_speedup);
    bench.Metric("shared_cache_hits", s_on.shared_cache_hits);
    bench.Metric("shared_model_hits", s_on.shared_cache_model_hits);
    bench.Report("sharing_off", off.report_json);
    bench.Report("sharing_on", on.report_json);
    if (!bench.Write(report_path)) {
        return 1;
    }
    return ok ? 0 : 1;
}
