#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "interp/build_options.h"
#include "obs/attribution.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "support/strings.h"
#include "workloads/registry.h"

namespace chef::service {

namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Which check in a job's stop hook fired first.
enum class StopSource {
    kNone,
    kServiceStop,
    kServiceBudget,
};

const char*
StopSourceName(StopSource source)
{
    switch (source) {
      case StopSource::kNone: return "none";
      case StopSource::kServiceStop: return "service_stop";
      case StopSource::kServiceBudget: return "service_budget";
    }
    return "?";
}

/// The seed the session runs with: the spec's verbatim seed when the
/// shard layer pre-derived it from the global batch index, the local
/// derivation otherwise.
uint64_t
SessionSeed(const JobSpec& spec, uint64_t service_seed, size_t job_index)
{
    return spec.exact_seed
               ? spec.seed
               : ExplorationService::DeriveJobSeed(service_seed, job_index,
                                                   spec.seed);
}

}  // namespace

const char*
JobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::kCompleted: return "completed";
      case JobStatus::kCancelled: return "cancelled";
      case JobStatus::kFailed: return "failed";
    }
    return "?";
}

ExplorationService::ExplorationService(Options options)
    : options_(options)
{
    if (options_.num_workers == 0) {
        options_.num_workers = 1;
    }
    if (options_.obs.metrics == nullptr) {
        owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
        options_.obs.metrics = owned_metrics_.get();
    }
    corpus_.CountInto(options_.obs.metrics);
}

ServiceStats
StatsFromMetrics(const obs::MetricsSnapshot& snapshot)
{
    const auto count = [&snapshot](const char* name) {
        return snapshot.CounterValue(name);
    };
    const auto level = [&snapshot](const std::string& name) {
        const int64_t value = obs::SnapshotGauge(
            snapshot, name, obs::SnapshotGauge(snapshot, name + "_total", 0));
        return static_cast<size_t>(std::max<int64_t>(0, value));
    };
    const auto sum_seconds = [&snapshot](const char* name) {
        const obs::HistogramSnapshot* histogram =
            snapshot.FindHistogram(name);
        return histogram == nullptr
                   ? 0.0
                   : static_cast<double>(histogram->sum_nanos) / 1e9;
    };
    ServiceStats stats;
    stats.jobs_submitted = count("service.jobs_submitted");
    stats.jobs_completed = count("service.jobs_completed");
    stats.jobs_cancelled = count("service.jobs_cancelled");
    stats.jobs_plateau_cancelled = count("service.jobs_plateau_cancelled");
    stats.jobs_failed = count("service.jobs_failed");
    stats.events_delivered = count("service.events_delivered");
    stats.ll_paths = count("engine.ll_paths");
    stats.hl_paths = count("engine.hl_paths");
    stats.hangs = count("engine.hangs");
    stats.solver_queries = count("solver.queries");
    stats.solver_sliced_queries = count("solver.sliced_queries");
    stats.solver_incremental_sat_calls =
        count("solver.incremental_sat_calls");
    stats.solver_clauses_loaded = count("solver.clauses_loaded");
    stats.corpus_size = level(obs::kCorpusSizeGauge);
    stats.solver_seconds = sum_seconds("solver.solve_seconds");
    stats.engine_seconds = sum_seconds("service.job_seconds");
    stats.wall_seconds = sum_seconds("service.batch_seconds");
    stats.jobs_per_second =
        stats.wall_seconds > 0.0
            ? static_cast<double>(stats.jobs_completed) / stats.wall_seconds
            : 0.0;
    return stats;
}

ServiceStats
ExplorationService::stats() const
{
    ServiceStats stats = StatsFromMetrics(options_.obs.metrics->Snapshot());
    stats.corpus_size = corpus_.size();
    stats.num_workers = options_.num_workers;
    stats.schedule_policy = options_.schedule_policy;
    return stats;
}

uint64_t
ExplorationService::DeriveJobSeed(uint64_t service_seed, size_t job_index,
                                  uint64_t spec_seed)
{
    const uint64_t parts[3] = {service_seed,
                               static_cast<uint64_t>(job_index), spec_seed};
    return FnvHash(parts, sizeof(parts));
}

void
ExplorationService::NotifyYieldsChanged()
{
    std::lock_guard<std::mutex> lock(scheduler_mutex_);
    if (active_scheduler_ != nullptr) {
        active_scheduler_->NotifyYieldsChanged();
    }
}

JobResult
ExplorationService::MakeCancelledPlaceholder(const JobSpec& spec,
                                             size_t job_index,
                                             const char* error,
                                             const char* stop_source) const
{
    JobResult result;
    result.job_index = job_index;
    result.workload = spec.workload;
    result.label = spec.label.empty() ? spec.workload : spec.label;
    result.seed_used = SessionSeed(spec, options_.seed, job_index);
    result.status = JobStatus::kCancelled;
    result.error = error;
    result.stop_source = stop_source;
    return result;
}

JobResult
ExplorationService::RunJob(const JobSpec& spec, size_t job_index,
                           double remaining_seconds)
{
    const auto start = Clock::now();

    JobResult result;
    result.job_index = job_index;
    result.workload = spec.workload;
    result.label = spec.label.empty() ? spec.workload : spec.label;
    result.seed_used = SessionSeed(spec, options_.seed, job_index);

    const workloads::WorkloadInfo* info =
        workloads::FindWorkload(spec.workload);
    if (info == nullptr) {
        result.status = JobStatus::kFailed;
        result.error = "unknown workload: " + spec.workload;
        return result;
    }

    // The session runs under Engine::Options defaults except for what
    // the spec and the service decide. The service budget is enforced
    // purely through the stop hook (not by clamping max_seconds): a
    // session that ends via the hook is unambiguously "cancelled", one
    // that exhausts its own budget is "completed".
    Engine::Options engine_options;
    engine_options.seed = result.seed_used;
    engine_options.max_runs = spec.options.max_runs;
    engine_options.max_seconds = spec.options.max_seconds;
    engine_options.collect_timeline = false;
    engine_options.obs = options_.obs;
    // One profiler per job, bound to the job's workload. Stack-owned:
    // the engine snapshots it into its stats before Explore returns,
    // and the solver pointers it flows to die with the engine.
    std::unique_ptr<obs::AttributionProfiler> profiler;
    if (options_.attribution) {
        profiler =
            std::make_unique<obs::AttributionProfiler>(spec.workload);
        engine_options.obs.attribution = profiler.get();
    }
    // Latch which check fires first, so the result names it. The hook
    // only runs on the job's engine thread, so plain shared state
    // suffices.
    auto source = std::make_shared<StopSource>(StopSource::kNone);
    engine_options.stop_requested = [this, start, remaining_seconds,
                                     source] {
        if (*source != StopSource::kNone) {
            return true;
        }
        if (stop_requested()) {
            *source = StopSource::kServiceStop;
            return true;
        }
        if (remaining_seconds > 0.0 &&
            SecondsSince(start) >= remaining_seconds) {
            *source = StopSource::kServiceBudget;
            return true;
        }
        return false;
    };

    try {
        // The job span is the root of each worker thread's trace row:
        // every engine/* and solver/* span of the session nests inside it
        // (the trace-validity test leans on this).
        CHEF_OBS_SPAN(job_span, options_.obs.tracer, "job", "service");
        job_span.set_detail(result.label);
        Engine engine(engine_options);
        const Engine::RunFn run =
            info->make_run(interp::InterpBuildOptions::FullyOptimized());
        const std::vector<TestCase> tests = engine.Explore(run);
        result.engine_stats = engine.stats();
        result.num_test_cases = tests.size();
        for (const TestCase& test : tests) {
            if (!test.new_hl_path) {
                continue;
            }
            ++result.num_relevant_test_cases;
            TestCorpus::Entry entry;
            entry.workload = spec.workload;
            entry.fingerprint = test.hl_path_fingerprint;
            entry.job_index = job_index;
            entry.outcome_kind = test.outcome_kind;
            entry.outcome_detail = test.outcome_detail;
            entry.hl_length = test.hl_length;
            entry.ll_steps = test.ll_steps;
            entry.inputs = test.inputs.entries();
            if (corpus_.Insert(std::move(entry))) {
                ++result.corpus_inserted;
            }
        }
        if (!result.engine_stats.stopped) {
            result.status = JobStatus::kCompleted;
        } else {
            const StopSource attributed =
                *source == StopSource::kNone ? StopSource::kServiceStop
                                             : *source;
            result.status = JobStatus::kCancelled;
            result.stop_source = StopSourceName(attributed);
            result.error = attributed == StopSource::kServiceBudget
                               ? "service budget exhausted"
                               : "stop requested";
        }
    } catch (const std::exception& error) {
        result.status = JobStatus::kFailed;
        result.error = error.what();
    }
    options_.obs.metrics->histogram("service.job_seconds")
        ->Record(SecondsSince(start));
    if (!result.engine_stats.attribution.empty()) {
        std::lock_guard<std::mutex> lock(attribution_mutex_);
        attribution_.MergeFrom(result.engine_stats.attribution);
    }
    return result;
}

obs::AttributionSnapshot
ExplorationService::attribution() const
{
    std::lock_guard<std::mutex> lock(attribution_mutex_);
    return attribution_;
}

std::vector<JobResult>
ExplorationService::RunBatch(const std::vector<JobSpec>& jobs)
{
    const auto batch_start = Clock::now();

    // A stop raised before this batch started targeted a *previous*
    // batch; left set it would silently cancel every job here (the
    // serial-reuse footgun). Stops raised after this line — i.e. during
    // the batch — behave as documented.
    stop_.store(false, std::memory_order_relaxed);
    obs::MetricsRegistry* metrics = options_.obs.metrics;
    metrics->counter("service.jobs_submitted")->Add(jobs.size());

    std::vector<JobResult> results(jobs.size());

    // Streamed events are produced by workers but delivered off the
    // worker threads, by one dispatcher thread: a slow Options::
    // on_job_event consumer back-pressures this (unbounded) queue, not
    // the exploration.
    struct EventPump {
        std::mutex mutex;
        std::condition_variable cv;
        std::deque<JobEvent> queue;
        bool done = false;
    };
    const bool streaming = static_cast<bool>(options_.on_job_event);
    EventPump pump;
    std::thread dispatcher;
    if (streaming) {
        obs::Counter* delivered =
            metrics->counter("service.events_delivered");
        dispatcher = std::thread([this, &pump, delivered] {
            for (;;) {
                JobEvent event;
                {
                    std::unique_lock<std::mutex> lock(pump.mutex);
                    pump.cv.wait(lock, [&pump] {
                        return !pump.queue.empty() || pump.done;
                    });
                    if (pump.queue.empty()) {
                        return;  // done, and fully drained
                    }
                    event = std::move(pump.queue.front());
                    pump.queue.pop_front();
                }
                delivered->Add();
                options_.on_job_event(event);
            }
        });
    }
    std::atomic<size_t> jobs_finished{0};
    // Serializes the finished-counter increment with the enqueue of the
    // event that snapshots it, so streamed kJobCompleted events are
    // monotone in jobs_finished even when workers complete back-to-back.
    std::mutex completion_order_mutex;
    auto emit = [&](JobEvent event) {
        if (!streaming) {
            return;
        }
        event.jobs_total = jobs.size();
        event.corpus_size = corpus_.size();
        event.elapsed_seconds = SecondsSince(batch_start);
        {
            std::lock_guard<std::mutex> lock(pump.mutex);
            pump.queue.push_back(std::move(event));
        }
        pump.cv.notify_one();
    };

    BatchScheduler::Options scheduler_options;
    scheduler_options.policy = options_.schedule_policy;
    scheduler_options.plateau = options_.plateau;
    scheduler_options.obs = options_.obs;
    std::vector<std::string> job_workloads;
    job_workloads.reserve(jobs.size());
    for (const JobSpec& spec : jobs) {
        job_workloads.push_back(spec.workload);
    }
    BatchScheduler scheduler(std::move(job_workloads), &corpus_,
                             scheduler_options);
    {
        // Published so NotifyYieldsChanged (remote gossip merges) can
        // reach the in-flight batch's scheduler from other threads.
        std::lock_guard<std::mutex> lock(scheduler_mutex_);
        active_scheduler_ = &scheduler;
    }

    // Pre-register the time-series instruments (and each workload's
    // variants) so the first recorder sample already carries them at
    // zero — coverage curves start at the origin instead of at the first
    // completion.
    metrics->counter(obs::kJobsFinishedCounter);
    metrics->counter(obs::kFingerprintsNewCounter);
    obs::Gauge* corpus_size = metrics->gauge(obs::kCorpusSizeGauge);
    corpus_size->Set(static_cast<int64_t>(corpus_.size()));
    for (const JobSpec& spec : jobs) {
        metrics->counter(std::string(obs::kJobsFinishedCounter) + "." +
                         spec.workload);
        metrics->counter(std::string(obs::kFingerprintsNewCounter) + "." +
                         spec.workload);
    }
    // Indexed by JobStatus.
    obs::Counter* const status_counters[] = {
        metrics->counter("service.jobs_completed"),
        metrics->counter("service.jobs_cancelled"),
        metrics->counter("service.jobs_failed"),
    };
    obs::Counter* plateau_cancelled =
        metrics->counter("service.jobs_plateau_cancelled");
    // Time-series sampling: when the caller supplied a recorder, a
    // ticker thread samples the registry at the recorder's cadence for
    // the life of the batch. One sample lands before any job runs and a
    // final one after all accounting, so the curve spans the whole
    // batch and its last point equals the final counters.
    obs::TimeSeriesRecorder* recorder =
        options_.obs.timeseries_enabled() ? options_.obs.timeseries
                                          : nullptr;
    std::thread sampler;
    std::mutex sampler_mutex;
    std::condition_variable sampler_cv;
    bool sampler_done = false;
    if (recorder != nullptr) {
        recorder->SampleNow(*metrics);
        sampler = std::thread([&] {
            const auto interval = std::chrono::duration<double>(
                recorder->options().interval_seconds);
            std::unique_lock<std::mutex> lock(sampler_mutex);
            while (!sampler_cv.wait_for(lock, interval,
                                        [&] { return sampler_done; })) {
                recorder->SampleNow(*metrics);
            }
        });
    }

    auto worker = [&] {
        BatchScheduler::Dispatch dispatch;
        while (scheduler.Acquire(&dispatch)) {
            const size_t index = dispatch.job_index;
            const JobSpec& spec = jobs[index];
            const double budget = options_.max_total_seconds;
            const double remaining =
                budget > 0.0 ? budget - SecondsSince(batch_start) : 0.0;
            if (dispatch.plateau_cancelled) {
                results[index] = MakeCancelledPlaceholder(
                    spec, index, "workload plateaued", "plateau");
            } else if (stop_requested() ||
                       (budget > 0.0 && remaining <= 0.0)) {
                // Never dispatched: record a cancelled placeholder so the
                // batch result still lists every submitted job.
                const bool stopped = stop_requested();
                results[index] = MakeCancelledPlaceholder(
                    spec, index,
                    stopped ? "stop requested" : "service budget exhausted",
                    stopped ? StopSourceName(StopSource::kServiceStop)
                            : StopSourceName(StopSource::kServiceBudget));
            } else {
                JobEvent started;
                started.kind = JobEvent::Kind::kJobStarted;
                started.job_index = index;
                started.workload = spec.workload;
                started.label =
                    spec.label.empty() ? spec.workload : spec.label;
                started.jobs_finished =
                    jobs_finished.load(std::memory_order_relaxed);
                emit(std::move(started));
                results[index] = RunJob(spec, index, remaining);
                if (results[index].status == JobStatus::kCompleted) {
                    // Only completed sessions carry a yield signal:
                    // failures never explored, and a session cut off
                    // mid-run by a stop or the service budget would
                    // record an artificially low yield into the
                    // corpus's persistent per-workload state, polluting
                    // priority order and plateau streaks for later
                    // batches on a serially reused service.
                    scheduler.OnJobCompleted(
                        spec.workload,
                        results[index].num_relevant_test_cases,
                        results[index].corpus_inserted);
                }
            }
            std::lock_guard<std::mutex> completion_order(
                completion_order_mutex);
            const size_t finished =
                jobs_finished.fetch_add(1, std::memory_order_relaxed) + 1;
            const JobResult& result = results[index];
            // Per-completion counters, bumped as results land so a time
            // series sees them move.
            status_counters[static_cast<size_t>(result.status)]->Add();
            if (result.stop_source == "plateau") {
                plateau_cancelled->Add();
            }
            metrics->counter(obs::kJobsFinishedCounter)->Add();
            metrics
                ->counter(std::string(obs::kJobsFinishedCounter) + "." +
                          result.workload)
                ->Add();
            if (result.corpus_inserted > 0) {
                metrics->counter(obs::kFingerprintsNewCounter)
                    ->Add(result.corpus_inserted);
                metrics
                    ->counter(std::string(obs::kFingerprintsNewCounter) +
                              "." + result.workload)
                    ->Add(result.corpus_inserted);
            }
            corpus_size->Set(static_cast<int64_t>(corpus_.size()));
            JobEvent completed;
            completed.kind = JobEvent::Kind::kJobCompleted;
            completed.job_index = index;
            completed.workload = result.workload;
            completed.label = result.label;
            completed.status = result.status;
            completed.stop_source = result.stop_source;
            completed.corpus_inserted = result.corpus_inserted;
            completed.jobs_finished = finished;
            if (streaming) {
                completed.result = std::make_shared<JobResult>(result);
            }
            emit(std::move(completed));
        }
    };

    const size_t pool_size =
        std::max<size_t>(1, std::min(options_.num_workers,
                                     std::max<size_t>(1, jobs.size())));
    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
        pool.emplace_back(worker);
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    if (sampler.joinable()) {
        {
            std::lock_guard<std::mutex> lock(sampler_mutex);
            sampler_done = true;
        }
        sampler_cv.notify_one();
        sampler.join();
    }
    {
        std::lock_guard<std::mutex> lock(scheduler_mutex_);
        active_scheduler_ = nullptr;
    }
    if (streaming) {
        {
            std::lock_guard<std::mutex> lock(pump.mutex);
            pump.done = true;
        }
        pump.cv.notify_one();
        dispatcher.join();
    }

    corpus_size->Set(static_cast<int64_t>(corpus_.size()));
    metrics->histogram("service.batch_seconds")
        ->Record(SecondsSince(batch_start));
    if (recorder != nullptr) {
        // Final sample after all accounting: the series' last point
        // matches the batch's final counters exactly, which the
        // coverage-CSV-vs-report smoke assertion relies on.
        recorder->SampleNow(*metrics);
    }
    return results;
}

}  // namespace chef::service
