/// \file
/// Tests for the parallel exploration service: corpus deduplication,
/// per-job seed determinism across worker counts, cooperative
/// cancellation under the service wall-clock budget, stats aggregation,
/// and JSON reporting.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"
#include "service/corpus.h"
#include "service/report.h"
#include "service/service.h"
#include "workloads/registry.h"
#include "stats_checks.h"

namespace chef::service {
namespace {

using lowlevel::LowLevelRuntime;
using lowlevel::SymValue;

enum Opcode : uint32_t { kOpStmt = 1, kOpCmp = 2 };

// ---------------------------------------------------------------------------
// Custom registry workloads for service tests.
// ---------------------------------------------------------------------------

/// Hang-heavy guest: 20 symbolic byte branches (~1M paths) and every
/// path then spins until the per-run step budget flags a hang. Without
/// external cancellation a session over this guest runs for minutes.
Engine::GuestOutcome
HangHeavyGuest(LowLevelRuntime& rt)
{
    uint64_t hlpc = 1;
    for (uint32_t i = 0; i < 20; ++i) {
        SymValue byte =
            rt.MakeSymbolicValue("b" + std::to_string(i), 8, 1);
        rt.LogPc(hlpc++, kOpCmp);
        if (rt.Branch(SvEq(byte, SymValue(0, 8)), CHEF_LLPC)) {
            rt.LogPc(hlpc + 100, kOpStmt);
        }
    }
    while (rt.CountStep()) {
    }
    return {"hang", "loop"};
}

/// Registers the custom test workloads once per process.
void
EnsureTestWorkloads()
{
    static const bool registered = [] {
        workloads::WorkloadInfo hang;
        hang.id = "test/hang-heavy";
        hang.language = "custom";
        hang.description = "every path spins until the step budget";
        hang.make_run = [](const interp::InterpBuildOptions&) {
            return Engine::RunFn(HangHeavyGuest);
        };
        return workloads::RegisterWorkload(std::move(hang));
    }();
    ASSERT_TRUE(registered);
}

/// A small real-workload batch exercising both guest languages.
std::vector<JobSpec>
SmallBatch()
{
    std::vector<JobSpec> jobs;
    for (const char* id :
         {"py/argparse", "py/simplejson", "lua/cliargs", "lua/haml"}) {
        JobSpec spec;
        spec.workload = id;
        spec.options.max_runs = 12;
        // Work is bounded by max_runs; keep the wall budget out of play
        // so results stay worker-count-deterministic even on a loaded
        // machine (a session truncated by its own wall clock is not).
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

// ---------------------------------------------------------------------------
// Corpus.
// ---------------------------------------------------------------------------

TEST(TestCorpus, DedupsByWorkloadAndFingerprint)
{
    TestCorpus corpus;
    TestCorpus::Entry entry;
    entry.workload = "py/argparse";
    entry.fingerprint = 0xabcdef;
    entry.outcome_kind = "ok";

    EXPECT_TRUE(corpus.Insert(entry));
    // Same key again (even with different payload): rejected.
    entry.outcome_kind = "exception";
    EXPECT_FALSE(corpus.Insert(entry));
    EXPECT_EQ(corpus.size(), 1u);
    // First writer wins.
    EXPECT_EQ(corpus.Snapshot()[0].outcome_kind, "ok");

    // Same fingerprint under a different workload is a distinct path.
    entry.workload = "lua/JSON";
    EXPECT_TRUE(corpus.Insert(entry));
    EXPECT_EQ(corpus.size(), 2u);

    EXPECT_TRUE(corpus.Contains("py/argparse", 0xabcdef));
    EXPECT_FALSE(corpus.Contains("py/argparse", 0xabcd));

    const std::vector<TestCorpus::Key> keys = corpus.Keys();
    EXPECT_EQ(keys.size(), 2u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

// ---------------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------------

TEST(ExplorationService, DerivedSeedsAreDeterministicAndDistinct)
{
    const uint64_t a = ExplorationService::DeriveJobSeed(1, 0, 0);
    EXPECT_EQ(a, ExplorationService::DeriveJobSeed(1, 0, 0));
    EXPECT_NE(a, ExplorationService::DeriveJobSeed(1, 1, 0));
    EXPECT_NE(a, ExplorationService::DeriveJobSeed(2, 0, 0));
    EXPECT_NE(a, ExplorationService::DeriveJobSeed(1, 0, 7));
}

// ---------------------------------------------------------------------------
// Determinism across worker counts.
// ---------------------------------------------------------------------------

TEST(ExplorationService, ResultsIdenticalForOneAndFourWorkers)
{
    const std::vector<JobSpec> jobs = SmallBatch();

    ExplorationService::Options base;
    base.seed = 42;

    ExplorationService::Options serial = base;
    serial.num_workers = 1;
    ExplorationService service_serial(serial);
    const std::vector<JobResult> results_serial =
        service_serial.RunBatch(jobs);

    ExplorationService::Options parallel = base;
    parallel.num_workers = 4;
    ExplorationService service_parallel(parallel);
    const std::vector<JobResult> results_parallel =
        service_parallel.RunBatch(jobs);

    ASSERT_EQ(results_serial.size(), jobs.size());
    ASSERT_EQ(results_parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        const JobResult& a = results_serial[i];
        const JobResult& b = results_parallel[i];
        SCOPED_TRACE(a.workload);
        EXPECT_EQ(a.status, JobStatus::kCompleted);
        EXPECT_EQ(b.status, JobStatus::kCompleted);
        // Seeds derive from (service seed, job index, spec seed) alone,
        // so each session is bit-identical regardless of which worker
        // ran it.
        EXPECT_EQ(a.seed_used,
                  ExplorationService::DeriveJobSeed(42, i, jobs[i].seed));
        EXPECT_EQ(a.seed_used, b.seed_used);
        EXPECT_EQ(a.num_test_cases, b.num_test_cases);
        EXPECT_EQ(a.num_relevant_test_cases, b.num_relevant_test_cases);
        EXPECT_EQ(a.engine_stats.ll_paths, b.engine_stats.ll_paths);
        EXPECT_EQ(a.engine_stats.hl_paths, b.engine_stats.hl_paths);
        EXPECT_EQ(a.engine_stats.solver_queries,
                  b.engine_stats.solver_queries);
    }

    // The deduplicated corpora agree as sets, independent of the
    // cross-thread discovery interleaving.
    EXPECT_EQ(service_serial.corpus().Keys(),
              service_parallel.corpus().Keys());
    EXPECT_GT(service_serial.corpus().size(), 0u);
}

// ---------------------------------------------------------------------------
// Cancellation and budgets.
// ---------------------------------------------------------------------------

TEST(ExplorationService, BudgetCancelsHangHeavyJob)
{
    EnsureTestWorkloads();

    JobSpec spec;
    spec.workload = "test/hang-heavy";
    // On its own the session would grind through up to a million runs of
    // up to 500k steps each; the service budget must cut it short. The
    // per-session max_seconds bounds the damage should budget plumbing
    // ever regress (the test would fail on wall time, not hang).
    spec.options.max_runs = 1'000'000;
    spec.options.max_seconds = 20.0;

    ExplorationService::Options options;
    options.num_workers = 2;
    options.max_total_seconds = 0.3;
    ExplorationService service(options);

    const auto start = std::chrono::steady_clock::now();
    const std::vector<JobResult> results =
        service.RunBatch({spec, spec});
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    // Generous margin over the 0.3s budget: the hook is polled between
    // runs, so overshoot is bounded by one run, not by the session.
    EXPECT_LT(wall, 5.0);
    for (const JobResult& result : results) {
        EXPECT_EQ(result.status, JobStatus::kCancelled);
    }
    EXPECT_EQ(service.stats().jobs_cancelled, 2u);
    EXPECT_EQ(service.stats().jobs_completed, 0u);
}

TEST(ExplorationService, RequestStopDuringBatchCancelsRunningAndQueued)
{
    EnsureTestWorkloads();
    ExplorationService::Options options;
    options.num_workers = 1;  // Forces the second job to sit in the queue.
    ExplorationService service(options);

    JobSpec spec;
    spec.workload = "test/hang-heavy";
    spec.options.max_runs = 1'000'000;
    spec.options.max_seconds = 20.0;

    std::thread watchdog([&service] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        service.RequestStop();
    });
    const std::vector<JobResult> results = service.RunBatch({spec, spec});
    watchdog.join();

    ASSERT_EQ(results.size(), 2u);
    for (const JobResult& result : results) {
        EXPECT_EQ(result.status, JobStatus::kCancelled);
    }
    // The queued job's placeholder still carries identity fields.
    EXPECT_EQ(results[1].workload, "test/hang-heavy");
    EXPECT_EQ(results[1].seed_used,
              ExplorationService::DeriveJobSeed(service.options().seed, 1,
                                                spec.seed));
}

/// Regression for the serial-reuse footgun: a stop raised against a
/// previous batch must not silently cancel the next one. RunBatch treats
/// a pre-existing stop flag as stale and clears it at entry.
TEST(ExplorationService, StaleStopFlagDoesNotCancelNextBatch)
{
    ExplorationService service({});
    service.RequestStop();  // No batch in flight: this stop is stale.

    JobSpec spec;
    spec.workload = "py/argparse";
    spec.options.max_runs = 4;
    const std::vector<JobResult> results = service.RunBatch({spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::kCompleted);
    EXPECT_FALSE(service.stop_requested());
}

TEST(ExplorationService, UnknownWorkloadFailsGracefully)
{
    ExplorationService service({});
    JobSpec spec;
    spec.workload = "py/definitely-not-a-package";
    const std::vector<JobResult> results = service.RunBatch({spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::kFailed);
    EXPECT_NE(results[0].error.find("unknown workload"),
              std::string::npos);
    EXPECT_EQ(service.stats().jobs_failed, 1u);
}

// ---------------------------------------------------------------------------
// Stats aggregation.
// ---------------------------------------------------------------------------

TEST(ExplorationService, StatsTotalsEqualSumOfJobStats)
{
    const std::vector<JobSpec> jobs = SmallBatch();
    ExplorationService::Options options;
    options.num_workers = 2;
    options.seed = 7;
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch(jobs);

    size_t corpus_inserted = 0;
    for (const JobResult& result : results) {
        corpus_inserted += result.corpus_inserted;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.jobs_completed, jobs.size());
    // Per-job solver seconds sum doubles; the registry sums whole
    // nanoseconds.
    checks::ExpectStatsTotalResults(stats, results, 1e-6);
    // Every corpus entry was inserted by exactly one job.
    EXPECT_EQ(stats.corpus_size, corpus_inserted);
    EXPECT_EQ(stats.corpus_size, service.corpus().size());
    EXPECT_GT(stats.wall_seconds, 0.0);
    EXPECT_GT(stats.jobs_per_second, 0.0);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(WorkloadRegistry, CoversAllEvaluationPackages)
{
    EXPECT_GE(workloads::AllWorkloads().size(), 11u);
    EXPECT_NE(workloads::FindWorkload("py/argparse"), nullptr);
    EXPECT_NE(workloads::FindWorkload("py/xlrd"), nullptr);
    EXPECT_NE(workloads::FindWorkload("lua/JSON"), nullptr);
    EXPECT_NE(workloads::FindWorkload("lua/moonscript"), nullptr);
    EXPECT_EQ(workloads::FindWorkload("py/nope"), nullptr);
    EXPECT_EQ(workloads::WorkloadIds().size(),
              workloads::AllWorkloads().size());
}

TEST(WorkloadRegistry, RejectsDuplicateIds)
{
    workloads::WorkloadInfo info;
    info.id = "py/argparse";
    info.make_run = [](const interp::InterpBuildOptions&) {
        return Engine::RunFn();
    };
    EXPECT_FALSE(workloads::RegisterWorkload(std::move(info)));
}

// ---------------------------------------------------------------------------
// JSON report.
// ---------------------------------------------------------------------------

TEST(JsonReport, EscapesStrings)
{
    EXPECT_EQ(JsonEscape("plain"), "plain");
    EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonReport, RendersBatchOutcome)
{
    std::vector<JobSpec> jobs;
    JobSpec spec;
    spec.workload = "py/argparse";
    spec.options.max_runs = 6;
    jobs.push_back(spec);

    ExplorationService service({});
    const std::vector<JobResult> results = service.RunBatch(jobs);
    EXPECT_GT(service.stats().solver_seconds, 0.0);
    const std::string report =
        RenderJsonReport(service.stats(), results, service.corpus());

    EXPECT_EQ(report.front(), '{');
    EXPECT_EQ(report.back(), '}');
    for (const char* key :
         {"\"report\"", "\"stats\"", "\"jobs_per_second\"", "\"jobs\"",
          "\"corpus\"", "\"fingerprint\"", "\"workload\"",
          "\"py/argparse\"", "\"solver_seconds\"", "\"solver_queries\""}) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }

    // Entry cap: corpus_size still reports the full size.
    ReportOptions capped;
    capped.max_corpus_entries = 1;
    const std::string capped_report =
        RenderJsonReport(service.stats(), results, service.corpus(),
                         capped);
    EXPECT_LT(capped_report.size(), report.size());
}

}  // namespace
}  // namespace chef::service
