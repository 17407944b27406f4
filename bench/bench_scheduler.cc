/// \file
/// Yield-weighted scheduling: equal-budget corpus coverage vs. FIFO.
///
/// Two phases over mixed py/lua batches:
///
/// 1. Equivalence (no wall budget, plateau off): FIFO and yield-priority
///    dispatch must produce *identical per-job results* — ordering only
///    permutes who runs when — and one completed-event per job in every
///    mode.
/// 2. Equal budget: a batch whose submission order front-loads duplicate
///    jobs of one workload, run under the same service wall budget with
///    (a) FIFO and (b) yield-priority + plateau cancellation. FIFO burns
///    the budget re-exploring the duplicates; the scheduler tries every
///    workload once first, then spends the rest where yield is climbing,
///    so it must reach at least the FIFO corpus (typically more, or the
///    same corpus in less wall time when plateau cancellation drains the
///    duplicates early).
/// 3. Recorder overhead: the bounded batch again, with and without a
///    TimeSeriesRecorder sampling at the default 100 ms cadence, best
///    wall time of a few repetitions each. The recorder must be cheap
///    enough to leave on in production (the regression gate holds this
///    bench's total wall time to the checked-in baseline).
/// 4. Attribution overhead: the bounded batch with the per-location
///    attribution profiler off vs. on (its default), best of the same
///    repetition count. Attribution ships enabled, so its cost rides
///    the same wall-time regression gate as the recorder's.
///
/// Emits one JSON document (default BENCH_scheduler.json) embedding both
/// configurations' full service reports.
///
/// Usage: bench_scheduler [--smoke] [report.json]
///   --smoke   small budgets for CI; enforces corpus_priority >=
///             corpus_fifo (full mode additionally requires a strict
///             corpus or wall-time win).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "service/report.h"
#include "service/scheduler.h"
#include "service/service.h"

namespace {

using chef::service::ExplorationService;
using chef::service::JobEvent;
using chef::service::JobResult;
using chef::service::JobSpec;
using chef::service::SchedulePolicy;
using chef::service::ServiceStats;

JobSpec
MakeJob(const char* workload, int copy, uint64_t max_runs)
{
    JobSpec spec;
    spec.workload = workload;
    spec.label = std::string(workload) + "#" + std::to_string(copy);
    spec.seed = static_cast<uint64_t>(copy) + 1;
    spec.options.max_runs = max_runs;
    spec.options.max_seconds = 1e9;
    return spec;
}

/// Duplicate-heavy head, diverse tail: the adversarial order for FIFO.
std::vector<JobSpec>
MakeSkewedBatch(bool smoke)
{
    const int dups = smoke ? 6 : 10;
    const uint64_t dup_runs = smoke ? 200 : 1000;
    const uint64_t tail_runs = smoke ? 30 : 120;
    std::vector<JobSpec> jobs;
    for (int i = 0; i < dups; ++i) {
        jobs.push_back(MakeJob("py/argparse", i, dup_runs));
    }
    int copy = 0;
    for (const char* id :
         {"py/simplejson", "lua/cliargs", "lua/haml", "lua/JSON"}) {
        jobs.push_back(MakeJob(id, copy++, tail_runs));
    }
    return jobs;
}

std::vector<JobSpec>
MakeBoundedBatch(bool smoke)
{
    const uint64_t max_runs = smoke ? 8 : 30;
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const char* id : {"py/argparse", "py/simplejson", "lua/cliargs",
                           "lua/haml", "py/argparse", "lua/JSON"}) {
        jobs.push_back(MakeJob(id, copy++, max_runs));
    }
    return jobs;
}

struct ConfigOutcome {
    ServiceStats stats;
    std::vector<JobResult> results;
    std::string report_json;
    size_t completed_events = 0;
    size_t corpus_size = 0;
    std::vector<chef::service::TestCorpus::Key> corpus_keys;
};

ConfigOutcome
RunConfig(const std::vector<JobSpec>& jobs, SchedulePolicy policy,
          bool plateau, double budget_seconds, size_t workers)
{
    ConfigOutcome outcome;
    ExplorationService::Options options;
    options.num_workers = workers;
    options.seed = 2014;
    options.max_total_seconds = budget_seconds;
    options.schedule_policy = policy;
    options.plateau = plateau;
    // Runs on the service's dispatcher thread, which RunBatch joins
    // before it returns.
    options.on_job_event = [&outcome](const JobEvent& event) {
        if (event.kind == JobEvent::Kind::kJobCompleted) {
            ++outcome.completed_events;
        }
    };
    ExplorationService service(options);

    outcome.results = service.RunBatch(jobs);
    outcome.stats = service.stats();
    outcome.report_json = chef::service::RenderJsonReport(
        service.stats(), outcome.results, service.corpus());
    outcome.corpus_size = service.corpus().size();
    outcome.corpus_keys = service.corpus().Keys();
    return outcome;
}

bool
SameJobResults(const std::vector<JobResult>& a,
               const std::vector<JobResult>& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].status != b[i].status ||
            a[i].seed_used != b[i].seed_used ||
            a[i].num_test_cases != b[i].num_test_cases ||
            a[i].num_relevant_test_cases != b[i].num_relevant_test_cases ||
            a[i].engine_stats.ll_paths != b[i].engine_stats.ll_paths ||
            a[i].engine_stats.hl_paths != b[i].engine_stats.hl_paths ||
            a[i].engine_stats.solver_queries !=
                b[i].engine_stats.solver_queries) {
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    const chef::bench::BenchArgs args = chef::bench::ParseBenchArgs(
        argc, argv, chef::bench::BenchCli::kSmokeAndPath);
    const bool smoke = args.smoke;
    std::string report_path = args.report_path;
    const size_t workers = smoke ? 2 : 4;
    bool ok = true;
    chef::bench::BenchReport bench("scheduler", smoke);
    if (report_path.empty()) {
        report_path = bench.DefaultPath();
    }
    bench.Config("workers", workers);

    // --- Phase 1: dispatch order must not change per-job results. ------
    const std::vector<JobSpec> bounded = MakeBoundedBatch(smoke);
    const ConfigOutcome eq_fifo =
        RunConfig(bounded, SchedulePolicy::kFifo, false, 0.0, workers);
    const ConfigOutcome eq_priority = RunConfig(
        bounded, SchedulePolicy::kYieldPriority, false, 0.0, workers);
    const bool equivalence_ok =
        SameJobResults(eq_fifo.results, eq_priority.results) &&
        eq_fifo.corpus_keys == eq_priority.corpus_keys;
    std::printf("equivalence (untruncated, %zu jobs): %s\n",
                bounded.size(), equivalence_ok ? "identical" : "DIVERGED");
    if (!equivalence_ok) {
        std::fprintf(stderr,
                     "FAIL: per-job results differ between FIFO and "
                     "priority dispatch\n");
        ok = false;
    }
    if (eq_fifo.completed_events != bounded.size() ||
        eq_priority.completed_events != bounded.size()) {
        std::fprintf(stderr,
                     "FAIL: expected one completed-event per job "
                     "(fifo: %zu, priority: %zu, jobs: %zu)\n",
                     eq_fifo.completed_events,
                     eq_priority.completed_events, bounded.size());
        ok = false;
    }

    // --- Phase 2: equal wall budget on the duplicate-skewed batch. -----
    const double budget = smoke ? 2.0 : 10.0;
    const std::vector<JobSpec> skewed = MakeSkewedBatch(smoke);
    std::printf(
        "\nequal budget: %zu jobs (duplicate-heavy head), %.1fs, "
        "%zu workers%s\n\n",
        skewed.size(), budget, workers, smoke ? " [smoke]" : "");
    const ConfigOutcome fifo =
        RunConfig(skewed, SchedulePolicy::kFifo, false, budget, workers);
    const ConfigOutcome priority = RunConfig(
        skewed, SchedulePolicy::kYieldPriority, true, budget, workers);

    std::printf("%26s %12s %18s\n", "", "fifo", "priority+plateau");
    std::printf("%26s %12zu %18zu\n", "corpus_size", fifo.corpus_size,
                priority.corpus_size);
    std::printf("%26s %12.3f %18.3f\n", "wall_seconds",
                fifo.stats.wall_seconds, priority.stats.wall_seconds);
    std::printf("%26s %12zu %18zu\n", "jobs_completed",
                fifo.stats.jobs_completed, priority.stats.jobs_completed);
    std::printf("%26s %12zu %18zu\n", "jobs_cancelled",
                fifo.stats.jobs_cancelled, priority.stats.jobs_cancelled);
    std::printf("%26s %12zu %18zu\n", "jobs_plateau_cancelled",
                fifo.stats.jobs_plateau_cancelled,
                priority.stats.jobs_plateau_cancelled);
    std::printf("%26s %12llu %18llu\n", "hl_paths",
                static_cast<unsigned long long>(fifo.stats.hl_paths),
                static_cast<unsigned long long>(priority.stats.hl_paths));

    if (fifo.completed_events != skewed.size() ||
        priority.completed_events != skewed.size()) {
        std::fprintf(stderr,
                     "FAIL: expected one completed-event per job under "
                     "budget (fifo: %zu, priority: %zu, jobs: %zu)\n",
                     fifo.completed_events, priority.completed_events,
                     skewed.size());
        ok = false;
    }
    if (priority.corpus_size < fifo.corpus_size) {
        std::fprintf(stderr,
                     "FAIL: priority+plateau corpus (%zu) below the FIFO "
                     "baseline (%zu) at equal budget\n",
                     priority.corpus_size, fifo.corpus_size);
        ok = false;
    }
    const bool strict_win =
        priority.corpus_size > fifo.corpus_size ||
        (priority.corpus_size >= fifo.corpus_size &&
         priority.stats.wall_seconds < fifo.stats.wall_seconds);
    if (!smoke && !strict_win) {
        // Smoke batches can drain fully inside the budget on a fast
        // machine, legitimately tying both corpus and wall.
        std::fprintf(stderr,
                     "FAIL: no strict corpus or wall-time win over FIFO "
                     "(corpus %zu vs %zu, wall %.3f vs %.3f)\n",
                     priority.corpus_size, fifo.corpus_size,
                     priority.stats.wall_seconds, fifo.stats.wall_seconds);
        ok = false;
    }
    std::printf("\npriority+plateau vs FIFO: corpus %+zd, wall %+.3fs\n",
                static_cast<ssize_t>(priority.corpus_size) -
                    static_cast<ssize_t>(fifo.corpus_size),
                priority.stats.wall_seconds - fifo.stats.wall_seconds);

    // --- Phase 3: time-series recorder overhead at 100 ms. -------------
    const int overhead_reps = smoke ? 2 : 3;
    const auto run_bounded = [&](bool with_recorder, uint64_t* samples) {
        chef::obs::MetricsRegistry metrics;
        chef::obs::TimeSeriesRecorder recorder;  // 100 ms default.
        ExplorationService::Options options;
        options.num_workers = workers;
        options.seed = 2014;
        options.schedule_policy = SchedulePolicy::kYieldPriority;
        options.on_job_event = [](const JobEvent&) {};
        options.obs.metrics = &metrics;
        if (with_recorder) {
            options.obs.timeseries = &recorder;
        }
        ExplorationService service(options);
        service.RunBatch(bounded);
        if (samples != nullptr) {
            *samples = recorder.last_index();
        }
        return service.stats().wall_seconds;
    };
    double wall_off = 1e9;
    double wall_on = 1e9;
    uint64_t recorder_samples = 0;
    for (int rep = 0; rep < overhead_reps; ++rep) {
        wall_off = std::min(wall_off, run_bounded(false, nullptr));
        wall_on = std::min(wall_on, run_bounded(true, &recorder_samples));
    }
    const double overhead_fraction =
        wall_off > 0.0 ? (wall_on - wall_off) / wall_off : 0.0;
    std::printf(
        "\nrecorder overhead (100ms cadence, best of %d): off %.3fs, "
        "on %.3fs (%+.1f%%, %llu samples)\n",
        overhead_reps, wall_off, wall_on, overhead_fraction * 100.0,
        static_cast<unsigned long long>(recorder_samples));

    // --- Phase 4: attribution profiler overhead. -----------------------
    const auto run_attributed = [&](bool attribution,
                                    uint64_t* locations) {
        ExplorationService::Options options;
        options.num_workers = workers;
        options.seed = 2014;
        options.schedule_policy = SchedulePolicy::kYieldPriority;
        options.attribution = attribution;
        ExplorationService service(options);
        service.RunBatch(bounded);
        if (locations != nullptr) {
            *locations = 0;
            const chef::obs::AttributionSnapshot table =
                service.attribution();
            for (const auto& [workload, rows] : table.workloads) {
                (void)workload;
                *locations += rows.size();
            }
        }
        return service.stats().wall_seconds;
    };
    double attribution_wall_off = 1e9;
    double attribution_wall_on = 1e9;
    uint64_t attribution_locations = 0;
    for (int rep = 0; rep < overhead_reps; ++rep) {
        attribution_wall_off =
            std::min(attribution_wall_off, run_attributed(false, nullptr));
        attribution_wall_on = std::min(
            attribution_wall_on,
            run_attributed(true, &attribution_locations));
    }
    const double attribution_overhead_fraction =
        attribution_wall_off > 0.0
            ? (attribution_wall_on - attribution_wall_off) /
                  attribution_wall_off
            : 0.0;
    std::printf(
        "attribution overhead (best of %d): off %.3fs, on %.3fs "
        "(%+.1f%%, %llu locations)\n",
        overhead_reps, attribution_wall_off, attribution_wall_on,
        attribution_overhead_fraction * 100.0,
        static_cast<unsigned long long>(attribution_locations));
    if (attribution_locations == 0) {
        std::fprintf(stderr,
                     "FAIL: attribution-enabled run charged no "
                     "locations\n");
        ok = false;
    }

    bench.Config("bounded_jobs", bounded.size());
    bench.Config("skewed_jobs", skewed.size());
    bench.Config("budget_seconds", budget);
    bench.Metric("equivalence_ok", equivalence_ok);
    bench.Metric("corpus_fifo", fifo.corpus_size);
    bench.Metric("corpus_priority", priority.corpus_size);
    bench.Metric("wall_fifo", fifo.stats.wall_seconds);
    bench.Metric("wall_priority", priority.stats.wall_seconds);
    bench.Metric("jobs_plateau_cancelled",
                 priority.stats.jobs_plateau_cancelled);
    bench.Metric("recorder_wall_off", wall_off);
    bench.Metric("recorder_wall_on", wall_on);
    bench.Metric("recorder_overhead_fraction", overhead_fraction);
    bench.Metric("recorder_samples", recorder_samples);
    bench.Metric("attribution_wall_off", attribution_wall_off);
    bench.Metric("attribution_wall_on", attribution_wall_on);
    bench.Metric("attribution_overhead_fraction",
                 attribution_overhead_fraction);
    bench.Metric("attribution_locations", attribution_locations);
    bench.Report("fifo", fifo.report_json);
    bench.Report("priority_plateau", priority.report_json);
    if (!bench.Write(report_path)) {
        return 1;
    }
    return ok ? 0 : 1;
}
