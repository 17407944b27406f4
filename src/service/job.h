#ifndef CHEF_SERVICE_JOB_H_
#define CHEF_SERVICE_JOB_H_

/// \file
/// Job and statistics types for the parallel exploration service.
///
/// A job is one symbolic-test session described declaratively: a workload
/// id resolved through the workload registry, the engine options for the
/// session, and a seed. The service runs each job on a worker thread with
/// its own Engine (engine internals stay single-threaded) and aggregates
/// outcomes into JobResult / ServiceStats.

#include <cstdint>
#include <memory>
#include <string>

#include "chef/engine.h"
#include "interp/build_options.h"

namespace chef::service {

/// Declarative description of one symbolic-test session.
struct JobSpec {
    /// Workload id resolved via chef::workloads::FindWorkload, e.g.
    /// "py/argparse" or "lua/JSON".
    std::string workload;
    /// Engine configuration for the session. The seed field inside is
    /// overwritten by the service's derived per-job seed, and
    /// stop_requested is chained with the service's cancellation/budget
    /// check.
    Engine::Options options;
    /// Interpreter build the session runs against.
    interp::InterpBuildOptions build =
        interp::InterpBuildOptions::FullyOptimized();
    /// Optional job-specific seed material. 0 means "derive purely from
    /// the service seed and the job index" — see
    /// ExplorationService::DeriveJobSeed.
    uint64_t seed = 0;
    /// Use \p seed verbatim as the session seed instead of deriving it
    /// from (service seed, local job index, seed). The shard layer sets
    /// this after deriving seeds from *global* batch indices, so a job
    /// runs the identical session no matter which shard (or local queue
    /// position) it lands on — partitioning cannot change per-job
    /// results.
    bool exact_seed = false;
    /// Display label; defaults to the workload id when empty.
    std::string label;
};

/// Terminal state of one job.
enum class JobStatus {
    kCompleted,  ///< Session ran to its own exhaustion/budget.
    kCancelled,  ///< Stopped early by service budget or RequestStop().
    kFailed,     ///< Could not run (unknown workload, guest setup error).
};

const char* JobStatusName(JobStatus status);

/// Order in which pending jobs are handed to free workers.
enum class SchedulePolicy {
    /// Submission order (the pre-scheduler dispatch behavior).
    kFifo,
    /// Highest expected new-fingerprint yield first, from the corpus's
    /// per-workload yield tracking: workloads no job has completed for
    /// yet come first (their yield is unknown, so exploring them
    /// dominates), then tried workloads by decayed yield. Submission
    /// order breaks every tie, so a batch with no recorded yields —
    /// or one whose workloads all score equal — dispatches FIFO.
    kYieldPriority,
};

const char* SchedulePolicyName(SchedulePolicy policy);

/// The plateau rule, when a batch enables it: a workload whose last
/// kPlateauDeprioritizeAfter completed jobs all found nothing globally
/// new sorts behind every workload still yielding, and once the streak
/// reaches kPlateauCancelAfter its remaining jobs are cancelled before
/// dispatch (status kCancelled, stop_source "plateau"). Off by default:
/// cancelling pending jobs changes batch results, whereas the ordering
/// policy only permutes the dispatch of jobs that all still run.
inline constexpr size_t kPlateauDeprioritizeAfter = 1;
inline constexpr size_t kPlateauCancelAfter = 2;

struct JobResult;

/// One streamed batch notification, delivered to Options::on_job_event
/// on the dispatcher thread while RunBatch is still blocked. Every job
/// produces exactly one kJobCompleted event — including jobs cancelled
/// before dispatch.
struct JobEvent {
    enum class Kind {
        kJobStarted,    ///< A worker began running the job.
        kJobCompleted,  ///< The job reached a terminal status.
    };
    Kind kind = Kind::kJobStarted;
    size_t job_index = 0;
    std::string workload;
    std::string label;
    /// Terminal status and its attribution (kJobCompleted only).
    JobStatus status = JobStatus::kCompleted;
    std::string stop_source;
    size_t corpus_inserted = 0;
    /// kJobCompleted only: the job's full result, shared so the event
    /// stays cheap to copy through the dispatcher queue. The shard
    /// worker streams these on its progress frames so a dying shard's
    /// finished work survives it; by emit time the result's corpus inserts are
    /// already visible in the shared corpus (RunJob inserts before the
    /// completion event fires).
    std::shared_ptr<const JobResult> result;
    /// Batch snapshot at emit time (both kinds).
    size_t jobs_finished = 0;
    size_t jobs_total = 0;
    size_t corpus_size = 0;
    double elapsed_seconds = 0.0;
};

const char* JobEventKindName(JobEvent::Kind kind);

/// Outcome of one job.
struct JobResult {
    size_t job_index = 0;
    std::string workload;
    std::string label;
    JobStatus status = JobStatus::kCompleted;
    /// Human-readable failure reason when status == kFailed, or the
    /// cancellation reason when status == kCancelled.
    std::string error;
    /// What ended the session: "none" (ran to exhaustion/budget),
    /// "service_stop" (RequestStop), "service_budget" (the service-wide
    /// wall clock), "job_hook" (the spec's own stop_requested hook —
    /// reported kCompleted, since the job's declared budget is not a
    /// service cancellation), or "plateau" (the plateau rule cancelled
    /// the job before dispatch).
    std::string stop_source = "none";
    /// The seed the session actually ran with (derived, deterministic in
    /// (service_seed, job_index, spec seed) and independent of worker
    /// count or scheduling order).
    uint64_t seed_used = 0;
    /// All completed runs of the session.
    size_t num_test_cases = 0;
    /// Runs that covered a high-level path new to this session — the
    /// paper's relevant test cases, and the candidates offered to the
    /// shared corpus.
    size_t num_relevant_test_cases = 0;
    /// Candidates the shared corpus accepted as globally new. Depends on
    /// cross-job insertion order, so it is *not* deterministic across
    /// worker counts (the deduplicated corpus itself is).
    size_t corpus_inserted = 0;
    EngineStats engine_stats;
};

/// Aggregate statistics across every batch a service instance has run,
/// or across the shards of a cluster. Never summed by hand: the counts
/// are read from a metrics snapshot by service::StatsFromMetrics, which
/// documents the metric behind each field.
struct ServiceStats {
    size_t jobs_submitted = 0;
    size_t jobs_completed = 0;
    size_t jobs_cancelled = 0;
    size_t jobs_failed = 0;
    /// Jobs cancelled before dispatch because their workload reached
    /// kPlateauCancelAfter (subset of jobs_cancelled).
    size_t jobs_plateau_cancelled = 0;
    uint64_t ll_paths = 0;
    uint64_t hl_paths = 0;
    uint64_t hangs = 0;
    uint64_t solver_queries = 0;
    /// Solver hot-path telemetry, summed across sessions: queries that
    /// independence slicing split, SAT calls served incrementally, and
    /// CNF clauses loaded into the CDCL backend.
    uint64_t solver_sliced_queries = 0;
    uint64_t solver_incremental_sat_calls = 0;
    uint64_t solver_clauses_loaded = 0;
    /// Sum of per-session solver wall times (the quantity solver-cache
    /// sharing exists to shrink).
    double solver_seconds = 0.0;
    /// Whether the last batch ran with a batch-shared solver cache.
    bool solver_cache_shared = false;
    /// Shared-solver-cache counters, accumulated across batches (0 when
    /// sharing is off). Hits/misses depend on cross-worker interleaving,
    /// so they are throughput telemetry, not deterministic quantities.
    uint64_t shared_cache_hits = 0;
    uint64_t shared_cache_misses = 0;
    uint64_t shared_cache_inserts = 0;
    uint64_t shared_cache_evictions = 0;
    uint64_t shared_cache_model_hits = 0;
    /// Shared-cache gauges after the last batch.
    size_t shared_cache_bytes = 0;
    size_t shared_cache_entries = 0;
    /// Size of the shared deduplicated corpus after the last batch.
    size_t corpus_size = 0;
    /// Sum of per-job wall times on the workers (CPU-side work measure).
    double engine_seconds = 0.0;
    /// Wall time spent inside RunBatch (a cluster: the slowest shard).
    double wall_seconds = 0.0;
    /// jobs_completed / wall_seconds (0 when no time has elapsed).
    double jobs_per_second = 0.0;
    size_t num_workers = 0;
    /// Dispatch order of the last batch.
    SchedulePolicy schedule_policy = SchedulePolicy::kYieldPriority;
    /// Streamed events handed to Options::on_job_event, accumulated
    /// across batches (0 when streaming is off).
    uint64_t events_delivered = 0;
};

}  // namespace chef::service

#endif  // CHEF_SERVICE_JOB_H_
