#ifndef CHEF_SERVICE_SERVICE_H_
#define CHEF_SERVICE_SERVICE_H_

/// \file
/// The parallel exploration service.
///
/// Accepts a batch of JobSpecs and runs them on a fixed-size pool of
/// worker threads — one Engine per job, so every engine (solver, runtime,
/// strategy, RNG) stays single-threaded and workers share only the
/// mutex-guarded TestCorpus and a handful of atomics. Per-job seeds are
/// derived as hash(service_seed, job_index, spec_seed), which makes every
/// job's session deterministic regardless of worker count or which worker
/// picks it up — provided the session's work is bounded by max_runs (or
/// exploration exhaustion) rather than wall clock: a session truncated by
/// its own max_seconds or a service budget cuts off at a load-dependent
/// point. Scheduling-dependent fields (corpus first-discoverer
/// attribution) vary between runs either way.
///
/// Cancellation and budgets are cooperative: the service chains a check of
/// its stop flag and wall-clock budget into each engine's
/// Options::stop_requested hook, which the explore loop polls between
/// concolic iterations and solver calls. The chained hook latches which
/// check fired first, so a session ended by the *spec's own* hook reports
/// kCompleted (its declared budget) rather than a service cancellation —
/// JobResult::stop_source carries the attribution either way.
///
/// Dispatch order comes from a BatchScheduler (service/scheduler.h):
/// yield-weighted priorities by default, plain FIFO via
/// Options::schedule_policy, optional plateau early-abort via
/// Options::plateau. Long batches can stream progress while RunBatch
/// blocks: Options::on_job_event is invoked — off the worker threads, on
/// one dispatcher thread — as each job starts and finishes.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "cache/shared_cache.h"
#include "service/corpus.h"
#include "service/job.h"
#include "service/scheduler.h"

namespace chef::service {

class ExplorationService
{
  public:
    struct Options {
        /// Worker threads in the pool (clamped to >= 1). Workers pull
        /// jobs from the batch scheduler in schedule_policy order.
        size_t num_workers = 1;
        /// Service seed; combined with each job's index and spec seed to
        /// derive the per-job engine seed.
        uint64_t seed = 1;
        /// Service-wide wall-clock budget for one RunBatch call, in
        /// seconds; 0 disables it. On expiry, running sessions are
        /// cooperatively stopped (they still report their partial
        /// results) and queued jobs are marked cancelled.
        double max_total_seconds = 0.0;
        /// Share one solver cache (query results + counterexamples)
        /// across every job in a batch. Off by default because a shared
        /// hit may hand a session a different satisfying model than a
        /// fresh SAT call would, which makes per-job exploration depend
        /// on sibling jobs (sat/unsat outcomes stay invariant; see
        /// cache/shared_cache.h). A fresh cache is created per RunBatch
        /// call (SharedSolverCache defaults) and its stats land in
        /// ServiceStats / the JSON report.
        bool share_solver_cache = false;
        /// Dispatch order for pending jobs. Yield-weighted by default;
        /// ordering does not change per-job results for bounded jobs
        /// (sessions are seeded independently), so the worker-count
        /// determinism contract holds under either policy.
        SchedulePolicy schedule_policy = SchedulePolicy::kYieldPriority;
        /// Early-abort for flat-yield workloads: the plateau rule of
        /// service/job.h (kPlateauDeprioritizeAfter, kPlateauCancelAfter).
        /// Off by default — when on, pending jobs can be cancelled, which
        /// *does* change batch results.
        bool plateau = false;
        /// Streaming callback, invoked for every JobEvent on a dedicated
        /// dispatcher thread (never a worker thread, so a slow consumer
        /// does not stall exploration; events queue up instead). Events
        /// for one batch arrive in emit order: a kJobStarted event for
        /// every job a worker runs, and exactly one kJobCompleted event
        /// for every job.
        std::function<void(const JobEvent&)> on_job_event;
        /// Telemetry (obs/obs.h). Each facility is propagated into every
        /// job's engine (and through it the solver) unless the spec wired
        /// its own. The service itself emits service/job spans and
        /// service.* counters. Without a registry the service owns one:
        /// stats() is read from it (StatsFromMetrics).
        obs::ObsContext obs;
        /// Per-location attribution profiling (obs/attribution.h): each
        /// job gets a profiler bound to its workload, the engine and
        /// solver charge work to high-level locations through it, and
        /// the per-job tables land in JobResult::engine_stats and the
        /// service-wide aggregate (attribution()). On by default — the
        /// hot path is a couple of relaxed atomic adds per charge (see
        /// bench_scheduler's overhead phase).
        bool attribution = true;
    };

    explicit ExplorationService(Options options);

    /// Runs every job in the batch to completion (or cancellation) and
    /// returns per-job results indexed by submission order. Blocks until
    /// the batch drains. Serial reuse across batches accumulates stats
    /// and corpus; concurrent calls are not supported. A stop flag left
    /// over from a previous batch's RequestStop() is stale and cleared on
    /// entry, so serially reused services don't silently cancel the next
    /// batch.
    std::vector<JobResult> RunBatch(const std::vector<JobSpec>& jobs);

    /// Asks all running sessions to stop and cancels queued jobs. Safe to
    /// call from any thread (e.g. a watchdog) while RunBatch blocks. The
    /// flag only affects the batch in flight: RunBatch clears any stop
    /// raised before it started.
    void RequestStop() { stop_.store(true, std::memory_order_relaxed); }

    bool stop_requested() const
    {
        return stop_.load(std::memory_order_relaxed);
    }

    const TestCorpus& corpus() const { return corpus_; }

    /// Mutable corpus access for the shard layer, which merges remote
    /// gossip deltas into the corpus while RunBatch is in flight (the
    /// corpus is mutex-guarded; see TestCorpus::MergeFrom). Pair with
    /// NotifyYieldsChanged() so the batch scheduler acts on the merge.
    TestCorpus* mutable_corpus() { return &corpus_; }

    /// Tells the in-flight batch's scheduler that corpus yield state
    /// changed outside a job completion (a remote gossip merge): pending
    /// jobs re-sort against the merged yields and the plateau check
    /// re-runs. No-op when no batch is running. Safe from any thread.
    void NotifyYieldsChanged();

    /// Totals over every batch so far, read from the registry
    /// (StatsFromMetrics), with the configuration fields and
    /// corpus_size filled from this service. When the caller's registry
    /// is shared with other producers, their counts are included.
    ServiceStats stats() const;
    /// The effective options: obs.metrics is never null.
    const Options& options() const { return options_; }

    /// Aggregate attribution table over every job completed so far
    /// (empty when Options::attribution is off). Safe to call while
    /// RunBatch is in flight: completed jobs' tables merge in under a
    /// mutex, so a mid-batch read sees a consistent prefix.
    obs::AttributionSnapshot attribution() const;

    /// The last batch's shared solver cache (null when sharing is off or
    /// no batch has run). Exposed for stats inspection and tests.
    const cache::SharedSolverCache* shared_solver_cache() const
    {
        return shared_cache_.get();
    }

    /// The per-job seed derivation (exposed for determinism tests).
    static uint64_t DeriveJobSeed(uint64_t service_seed, size_t job_index,
                                  uint64_t spec_seed);

  private:
    JobResult RunJob(const JobSpec& spec, size_t job_index,
                     double remaining_seconds);

    /// Identity-only result for a job that never ran (queued at stop /
    /// budget expiry, or plateau-cancelled).
    JobResult MakeCancelledPlaceholder(const JobSpec& spec,
                                       size_t job_index, const char* error,
                                       const char* stop_source) const;

    /// Set when Options::obs carried no registry; options_.obs.metrics
    /// points at it.
    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    Options options_;
    std::atomic<bool> stop_{false};
    TestCorpus corpus_;
    /// The in-flight batch's scheduler (set for the duration of RunBatch;
    /// guarded so NotifyYieldsChanged can't race scheduler teardown).
    std::mutex scheduler_mutex_;
    BatchScheduler* active_scheduler_ = nullptr;
    /// One cache per batch; rebuilt at each RunBatch entry when
    /// share_solver_cache is on (kept afterwards for inspection).
    std::unique_ptr<cache::SharedSolverCache> shared_cache_;
    /// Aggregate of completed jobs' attribution tables (order-independent
    /// merge, so worker scheduling cannot change it).
    mutable std::mutex attribution_mutex_;
    obs::AttributionSnapshot attribution_;
};

/// The one roll-up of batch counts: fills every count of a ServiceStats
/// from \p snapshot, which may be one service's registry or a merge of
/// many (a shard across requeue rounds, a whole cluster).
///
///   fields                                 metrics in the snapshot
///   jobs_{submitted,completed,cancelled,   counters service.<field>
///     plateau_cancelled,failed},
///     events_delivered
///   ll_paths, hl_paths, hangs              counters engine.<field>
///   solver_queries                         counter solver.queries
///   solver_{sliced_queries,                counters solver.<suffix>
///     incremental_sat_calls,
///     clauses_loaded}
///   shared_cache_{hits,misses,inserts,     counters shared_cache.<suffix>
///     evictions,model_hits}
///   shared_cache_{bytes,entries}           gauges shared_cache.<suffix>
///   corpus_size                            gauge corpus.size
///   solver_seconds                         histogram solver.solve_seconds
///   engine_seconds                         histogram service.job_seconds
///   wall_seconds                           histogram service.batch_seconds
///   jobs_per_second                        jobs_completed / wall_seconds
///
/// Seconds are a histogram's sum_nanos. A gauge is read under its own
/// name in one registry's snapshot and as `<name>_total` in a merged one
/// (MetricsSnapshot::MergeFrom). The configuration fields (num_workers,
/// schedule_policy, solver_cache_shared) are left for the owner of the
/// batch to set, as are the clock and corpus fields
/// when the owner keeps its own.
ServiceStats StatsFromMetrics(const obs::MetricsSnapshot& snapshot);

}  // namespace chef::service

#endif  // CHEF_SERVICE_SERVICE_H_
