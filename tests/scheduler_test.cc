/// \file
/// Tests for the yield-weighted batch scheduler and streaming events:
/// corpus yield tracking, priority ordering and plateau handling at the
/// BatchScheduler level, worker-count determinism under priority
/// dispatch, event delivery/ordering (including under RequestStop), stop
/// attribution, and the service-reporting bugfixes (non-finite doubles,
/// corpus truncation) validated through a strict JSON parser.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"
#include "obs/metrics.h"
#include "service/corpus.h"
#include "service/report.h"
#include "service/scheduler.h"
#include "service/service.h"
#include "support/json.h"
#include "workloads/registry.h"

namespace chef::service {
namespace {

using lowlevel::LowLevelRuntime;
using lowlevel::SymValue;

// The strict RFC-8259 validator used to live here as a test-only class;
// it is now the production parser in support/json.h, shared with the
// shard wire format, so the report contract and the wire format are
// checked by the same grammar.
using support::JsonValid;

enum Opcode : uint32_t { kOpStmt = 1, kOpCmp = 2 };

// ---------------------------------------------------------------------------
// Custom registry workloads.
// ---------------------------------------------------------------------------

/// Two high-level paths total: one symbolic byte, one branch. Any
/// session with max_runs >= 2 discovers both, so in a batch of repeats
/// the first job inserts everything and every later job yields zero —
/// the plateau shape, deterministically.
Engine::GuestOutcome
TwoPathGuest(LowLevelRuntime& rt)
{
    SymValue byte = rt.MakeSymbolicValue("b0", 8, 1);
    rt.LogPc(1, kOpCmp);
    if (rt.Branch(SvEq(byte, SymValue(0, 8)), CHEF_LLPC)) {
        rt.LogPc(2, kOpStmt);
    } else {
        rt.LogPc(3, kOpStmt);
    }
    return {"ok", ""};
}

/// Hang-heavy guest (as in service_test): ~1M paths, every run spins to
/// the step budget; only external cancellation ends a session promptly.
Engine::GuestOutcome
HangGuest(LowLevelRuntime& rt)
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

void
EnsureTestWorkloads()
{
    static const bool registered = [] {
        workloads::WorkloadInfo two_path;
        two_path.id = "test/two-path";
        two_path.language = "custom";
        two_path.description = "exactly two high-level paths";
        two_path.make_run = [](const interp::InterpBuildOptions&) {
            return Engine::RunFn(TwoPathGuest);
        };
        if (!workloads::RegisterWorkload(std::move(two_path))) {
            return false;
        }
        workloads::WorkloadInfo hang;
        hang.id = "test/sched-hang";
        hang.language = "custom";
        hang.description = "every path spins until the step budget";
        hang.make_run = [](const interp::InterpBuildOptions&) {
            return Engine::RunFn(HangGuest);
        };
        return workloads::RegisterWorkload(std::move(hang));
    }();
    ASSERT_TRUE(registered);
}

std::vector<JobSpec>
MixedBatch()
{
    std::vector<JobSpec> jobs;
    for (const char* id :
         {"py/argparse", "py/simplejson", "lua/cliargs", "lua/haml"}) {
        JobSpec spec;
        spec.workload = id;
        spec.options.max_runs = 10;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }
    return jobs;
}

// ---------------------------------------------------------------------------
// Corpus yield tracking.
// ---------------------------------------------------------------------------

TEST(CorpusYield, TracksDecayedYieldAndZeroStreak)
{
    TestCorpus corpus;
    EXPECT_EQ(corpus.YieldFor("py/argparse").jobs_recorded, 0u);

    corpus.RecordJobYield("py/argparse", 10, 8);
    TestCorpus::WorkloadYield yield = corpus.YieldFor("py/argparse");
    EXPECT_EQ(yield.jobs_recorded, 1u);
    EXPECT_EQ(yield.offered_total, 10u);
    EXPECT_EQ(yield.accepted_total, 8u);
    EXPECT_DOUBLE_EQ(yield.decayed_yield, 8.0);  // First job seeds.
    EXPECT_EQ(yield.consecutive_zero_yield, 0u);

    corpus.RecordJobYield("py/argparse", 10, 4);
    yield = corpus.YieldFor("py/argparse");
    EXPECT_DOUBLE_EQ(yield.decayed_yield, 6.0);  // 0.5*(8+4).

    corpus.RecordJobYield("py/argparse", 10, 0);
    corpus.RecordJobYield("py/argparse", 10, 0);
    yield = corpus.YieldFor("py/argparse");
    EXPECT_EQ(yield.consecutive_zero_yield, 2u);
    EXPECT_DOUBLE_EQ(yield.decayed_yield, 1.5);  // Decays toward zero.

    corpus.RecordJobYield("py/argparse", 10, 2);
    EXPECT_EQ(corpus.YieldFor("py/argparse").consecutive_zero_yield, 0u);

    // Workloads track independently.
    EXPECT_EQ(corpus.YieldFor("lua/JSON").jobs_recorded, 0u);
    corpus.Clear();
    EXPECT_EQ(corpus.YieldFor("py/argparse").jobs_recorded, 0u);
}

// ---------------------------------------------------------------------------
// BatchScheduler ordering.
// ---------------------------------------------------------------------------

TEST(BatchScheduler, FifoWhenNoYieldSignal)
{
    TestCorpus corpus;
    BatchScheduler::Options options;  // kYieldPriority.
    BatchScheduler scheduler({"a", "b", "a", "b"}, &corpus, options);

    // All workloads untried: pure submission order (the FIFO tie-break).
    BatchScheduler::Dispatch dispatch;
    for (size_t expected = 0; expected < 4; ++expected) {
        ASSERT_TRUE(scheduler.Acquire(&dispatch));
        EXPECT_EQ(dispatch.job_index, expected);
        EXPECT_FALSE(dispatch.plateau_cancelled);
    }
    EXPECT_FALSE(scheduler.Acquire(&dispatch));
}

TEST(BatchScheduler, PrefersUntriedThenHighestYield)
{
    TestCorpus corpus;
    BatchScheduler::Options options;
    // Jobs: 0=a 1=a 2=b 3=b 4=c 5=c.
    BatchScheduler scheduler({"a", "a", "b", "b", "c", "c"}, &corpus,
                             options);

    BatchScheduler::Dispatch dispatch;
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 0u);  // FIFO at the start.
    scheduler.OnJobCompleted("a", 6, 6);  // a: tried, high yield.

    // Untried workloads outrank even a high-yield tried one.
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 2u);  // b (untried).
    scheduler.OnJobCompleted("b", 2, 1);  // b: tried, low yield.

    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 4u);  // c (untried).
    scheduler.OnJobCompleted("c", 0, 0);  // c: tried, zero yield.

    // All tried now: highest decayed yield first (a=6 > b=1 > c=0).
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 1u);  // a.
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 3u);  // b.
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 5u);  // c.
    EXPECT_FALSE(scheduler.Acquire(&dispatch));
}

TEST(BatchScheduler, PlateauDeprioritizesThenCancels)
{
    TestCorpus corpus;
    obs::MetricsRegistry metrics;
    BatchScheduler::Options options;
    options.plateau = true;
    options.obs.metrics = &metrics;
    // Jobs: 0=a 1=a 2=a 3=a 4=b.
    BatchScheduler scheduler({"a", "a", "a", "a", "b"}, &corpus, options);

    BatchScheduler::Dispatch dispatch;
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 0u);
    scheduler.OnJobCompleted("a", 0, 0);  // Zero streak: 1.

    // One zero-yield job deprioritizes a behind untried b.
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 4u);
    EXPECT_FALSE(dispatch.plateau_cancelled);
    scheduler.OnJobCompleted("b", 3, 3);

    // a is still dispatchable (deprioritized, not cancelled).
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 1u);
    EXPECT_FALSE(dispatch.plateau_cancelled);
    scheduler.OnJobCompleted("a", 0, 0);  // Zero streak: 2 -> cancelled.

    // Remaining a jobs pop as plateau cancellations, in order.
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 2u);
    EXPECT_TRUE(dispatch.plateau_cancelled);
    ASSERT_TRUE(scheduler.Acquire(&dispatch));
    EXPECT_EQ(dispatch.job_index, 3u);
    EXPECT_TRUE(dispatch.plateau_cancelled);
    EXPECT_FALSE(scheduler.Acquire(&dispatch));
    // One cancellation event per workload, not per job.
    EXPECT_EQ(metrics.Snapshot().CounterValue("scheduler.plateau_cancels"),
              1u);
}

// ---------------------------------------------------------------------------
// Service: determinism under priority dispatch.
// ---------------------------------------------------------------------------

TEST(Scheduler, ResultsIdenticalAcrossWorkerCountsUnderPriority)
{
    const std::vector<JobSpec> jobs = MixedBatch();

    ExplorationService::Options base;
    base.seed = 7;
    ASSERT_EQ(base.schedule_policy, SchedulePolicy::kYieldPriority);

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
        EXPECT_EQ(a.seed_used, b.seed_used);
        EXPECT_EQ(a.num_test_cases, b.num_test_cases);
        EXPECT_EQ(a.num_relevant_test_cases, b.num_relevant_test_cases);
        EXPECT_EQ(a.engine_stats.ll_paths, b.engine_stats.ll_paths);
        EXPECT_EQ(a.engine_stats.hl_paths, b.engine_stats.hl_paths);
        EXPECT_EQ(a.engine_stats.solver_queries,
                  b.engine_stats.solver_queries);
        EXPECT_EQ(a.stop_source, "none");
    }
    EXPECT_EQ(service_serial.corpus().Keys(),
              service_parallel.corpus().Keys());
    EXPECT_GT(service_serial.corpus().size(), 0u);
}

// ---------------------------------------------------------------------------
// Streaming events.
// ---------------------------------------------------------------------------

TEST(Scheduler, OneCompletedEventPerJobAndOrdering)
{
    const std::vector<JobSpec> jobs = MixedBatch();

    std::vector<JobEvent> events;
    ExplorationService::Options options;
    options.num_workers = 2;
    options.on_job_event = [&events](const JobEvent& event) {
        // Runs on the dispatcher thread, strictly serialized; no lock
        // needed as long as the events are read after RunBatch returns.
        events.push_back(event);
    };
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch(jobs);

    ASSERT_FALSE(events.empty());
    // One started and one completed event per job, nothing else.
    EXPECT_EQ(events.size(), 2 * jobs.size());
    EXPECT_EQ(service.stats().events_delivered, events.size());

    std::map<size_t, size_t> started, completed;
    size_t last_finished = 0;
    for (const JobEvent& event : events) {
        EXPECT_EQ(event.jobs_total, jobs.size());
        switch (event.kind) {
          case JobEvent::Kind::kJobStarted:
            ++started[event.job_index];
            // A job must start before it completes.
            EXPECT_EQ(completed.count(event.job_index), 0u);
            break;
          case JobEvent::Kind::kJobCompleted:
            ++completed[event.job_index];
            EXPECT_EQ(event.status, JobStatus::kCompleted);
            EXPECT_EQ(event.stop_source, "none");
            // Completions count up by one, in delivery order.
            EXPECT_EQ(event.jobs_finished, last_finished + 1);
            last_finished = event.jobs_finished;
            break;
        }
    }
    EXPECT_EQ(last_finished, jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(started[i], 1u) << "job " << i;
        EXPECT_EQ(completed[i], 1u) << "job " << i;
    }
    // The streamed corpus_inserted matches the job results.
    for (const JobEvent& event : events) {
        if (event.kind == JobEvent::Kind::kJobCompleted) {
            EXPECT_EQ(event.corpus_inserted,
                      results[event.job_index].corpus_inserted);
        }
    }
}

TEST(Scheduler, EventOrderingUnderRequestStopMidStream)
{
    EnsureTestWorkloads();

    JobSpec spec;
    spec.workload = "test/sched-hang";
    spec.options.max_runs = 1'000'000;
    spec.options.max_seconds = 20.0;
    const std::vector<JobSpec> jobs = {spec, spec, spec};

    std::vector<JobEvent> events;
    ExplorationService::Options options;
    options.num_workers = 1;  // Jobs 1 and 2 sit in the queue.
    options.on_job_event = [&events](const JobEvent& event) {
        events.push_back(event);
    };
    ExplorationService service(options);

    std::thread watchdog([&service] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        service.RequestStop();
    });
    const std::vector<JobResult> results = service.RunBatch(jobs);
    watchdog.join();

    ASSERT_EQ(results.size(), 3u);
    for (const JobResult& result : results) {
        EXPECT_EQ(result.status, JobStatus::kCancelled);
        EXPECT_EQ(result.stop_source, "service_stop");
        EXPECT_EQ(result.error, "stop requested");
    }

    // Every job still produced exactly one completed event — the
    // undispatched ones included — and only the dispatched job started.
    std::map<size_t, size_t> started, completed;
    for (const JobEvent& event : events) {
        if (event.kind == JobEvent::Kind::kJobStarted) {
            ++started[event.job_index];
        } else if (event.kind == JobEvent::Kind::kJobCompleted) {
            ++completed[event.job_index];
            EXPECT_EQ(event.status, JobStatus::kCancelled);
            EXPECT_EQ(event.stop_source, "service_stop");
        }
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(completed[i], 1u) << "job " << i;
    }
    EXPECT_EQ(started[0], 1u);
    EXPECT_EQ(started.count(1), 0u);
    EXPECT_EQ(started.count(2), 0u);
}

// ---------------------------------------------------------------------------
// The plateau rule through the service.
// ---------------------------------------------------------------------------

TEST(Scheduler, PlateauCancelsAndAttributes)
{
    EnsureTestWorkloads();

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 6; ++i) {
        JobSpec spec;
        spec.workload = "test/two-path";
        spec.label = "two-path#" + std::to_string(i);
        spec.options.max_runs = 8;
        spec.options.max_seconds = 1e9;
        jobs.push_back(std::move(spec));
    }

    std::map<size_t, size_t> completed;
    ExplorationService::Options options;
    options.num_workers = 1;  // Deterministic completion order.
    options.plateau = true;
    options.on_job_event = [&completed](const JobEvent& event) {
        if (event.kind == JobEvent::Kind::kJobCompleted) {
            ++completed[event.job_index];
        }
    };
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch(jobs);

    // Job 0 discovers both paths; jobs 1-2 complete with zero yield and
    // trip the plateau; jobs 3-5 are cancelled before dispatch.
    ASSERT_EQ(results.size(), 6u);
    EXPECT_EQ(results[0].status, JobStatus::kCompleted);
    EXPECT_EQ(results[0].corpus_inserted, 2u);
    for (size_t i = 1; i <= 2; ++i) {
        EXPECT_EQ(results[i].status, JobStatus::kCompleted) << i;
        EXPECT_EQ(results[i].corpus_inserted, 0u) << i;
    }
    for (size_t i = 3; i <= 5; ++i) {
        EXPECT_EQ(results[i].status, JobStatus::kCancelled) << i;
        EXPECT_EQ(results[i].stop_source, "plateau") << i;
        EXPECT_EQ(results[i].error, "workload plateaued") << i;
    }
    EXPECT_EQ(service.stats().jobs_plateau_cancelled, 3u);
    EXPECT_EQ(service.stats().jobs_cancelled, 3u);
    EXPECT_EQ(service.stats().jobs_completed, 3u);

    // One completed event per job, plateau cancellations included.
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(completed[i], 1u) << "job " << i;
    }

    // The attribution lands in the report, which stays strictly valid.
    const std::string report =
        RenderJsonReport(service.stats(), results, service.corpus());
    EXPECT_TRUE(JsonValid(report));
    EXPECT_NE(report.find("\"jobs_plateau_cancelled\":3"),
              std::string::npos);
    EXPECT_NE(report.find("\"stop_source\":\"plateau\""),
              std::string::npos);
}

// ---------------------------------------------------------------------------
// Stop-source attribution.
// ---------------------------------------------------------------------------

TEST(Scheduler, ServiceBudgetStopIsAttributed)
{
    EnsureTestWorkloads();
    JobSpec spec;
    spec.workload = "test/sched-hang";
    spec.options.max_runs = 1'000'000;
    spec.options.max_seconds = 20.0;

    ExplorationService::Options options;
    options.max_total_seconds = 0.2;
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch({spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::kCancelled);
    EXPECT_EQ(results[0].stop_source, "service_budget");
    EXPECT_EQ(results[0].error, "service budget exhausted");
}

// ---------------------------------------------------------------------------
// Report bugfixes.
// ---------------------------------------------------------------------------

TEST(JsonReport, NonFiniteDoublesSerializeAsNull)
{
    // Regression: %.6f prints bare `nan`/`inf`, which breaks strict
    // JSON parsing of the whole report.
    ServiceStats stats;
    stats.jobs_per_second = std::numeric_limits<double>::quiet_NaN();
    stats.solver_seconds = std::numeric_limits<double>::infinity();
    stats.engine_seconds = -std::numeric_limits<double>::infinity();
    stats.wall_seconds = 1.5;

    JobResult result;
    result.workload = "py/argparse";
    result.label = "argparse";
    result.engine_stats.elapsed_seconds =
        std::numeric_limits<double>::quiet_NaN();

    TestCorpus corpus;
    const std::string report =
        RenderJsonReport(stats, {result}, corpus);
    EXPECT_TRUE(JsonValid(report)) << report;
    EXPECT_NE(report.find("\"jobs_per_second\":null"), std::string::npos);
    EXPECT_NE(report.find("\"solver_seconds\":null"), std::string::npos);
    EXPECT_EQ(report.find("nan"), std::string::npos);
    EXPECT_EQ(report.find("inf"), std::string::npos);
    // Finite values still serialize as numbers.
    EXPECT_NE(report.find("\"wall_seconds\":1.500000"), std::string::npos);
}

TEST(JsonReport, CorpusTruncatedCountsDroppedEntries)
{
    TestCorpus corpus;
    for (uint64_t i = 0; i < 3; ++i) {
        TestCorpus::Entry entry;
        entry.workload = "py/argparse";
        entry.fingerprint = i;
        entry.outcome_kind = "ok";
        ASSERT_TRUE(corpus.Insert(entry));
    }
    const ServiceStats stats;

    ReportOptions capped;
    capped.max_corpus_entries = 1;
    const std::string capped_report =
        RenderJsonReport(stats, {}, corpus, capped);
    EXPECT_TRUE(JsonValid(capped_report));
    EXPECT_NE(capped_report.find("\"corpus_truncated\":2"),
              std::string::npos);

    const std::string full_report = RenderJsonReport(stats, {}, corpus);
    EXPECT_TRUE(JsonValid(full_report));
    EXPECT_NE(full_report.find("\"corpus_truncated\":0"),
              std::string::npos);
}

TEST(JsonReport, NewFieldsParseStrictOnRealBatch)
{
    JobSpec spec;
    spec.workload = "py/argparse";
    spec.options.max_runs = 6;

    ExplorationService::Options options;
    options.on_job_event = [](const JobEvent&) {};
    ExplorationService service(options);
    const std::vector<JobResult> results = service.RunBatch({spec});

    const std::string report =
        RenderJsonReport(service.stats(), results, service.corpus());
    EXPECT_TRUE(JsonValid(report)) << report;
    for (const char* key :
         {"\"schedule_policy\":\"yield_priority\"",
          "\"jobs_plateau_cancelled\":0", "\"events_delivered\"",
          "\"stop_source\":\"none\"", "\"corpus_truncated\":0"}) {
        EXPECT_NE(report.find(key), std::string::npos) << key;
    }
}

}  // namespace
}  // namespace chef::service
