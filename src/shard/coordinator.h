#ifndef CHEF_SHARD_COORDINATOR_H_
#define CHEF_SHARD_COORDINATOR_H_

/// \file
/// The shard coordinator: one batch fanned out over N shard workers.
///
/// The coordinator partitions a batch round-robin over the shards,
/// pre-deriving every job's seed from its *global* index (so the
/// partition cannot change per-job results — see JobSpec::exact_seed),
/// then multiplexes the transports from one thread. Each shard's
/// progress frames merge as they arrive: job results into results(),
/// full corpus entries into one deduplicated corpus (duplicate keys
/// across shards are the residual cross-shard overlap gossip didn't
/// suppress in time), telemetry into the shard's latest view. Their
/// compact gossip form is forwarded to every other busy shard
/// (receivers merge per source, so forwarding order cannot skew the
/// merged state). A shard's result frame closes its run with the final
/// telemetry and trace. The per-shard reports merge into one JSON
/// document with per-shard and cross-shard-dedup stats.
///
/// The batch survives shard death. A shard is declared dead on EOF, a
/// failed send, a malformed wire line, a worker-announced error, a
/// supervisor probe (waitpid), or silence from a busy shard past the
/// deadline. Its unfinished jobs — everything inflight minus the results
/// it already streamed — requeue onto the next idle survivor, and
/// because every seed derives from the *global* job index, the rerun is
/// bit-identical to what the dead shard would have produced. A streamed
/// job's discoveries came on the same progress frame as its result, so
/// they are already in the merged corpus, inputs included. An optional
/// ShardSupervisor can respawn dead pipe workers with bounded
/// exponential backoff; below Options::min_live_shards the batch stops
/// requeueing and degrades to a partial report (degraded() == true)
/// instead of failing.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "service/report.h"
#include "shard/transport.h"
#include "shard/wire.h"

namespace chef::shard {

/// Hook the coordinator uses to check on and revive shard processes it
/// does not itself own (the CLI owns the fork/exec side). Both calls
/// happen on the coordinator's Run thread.
class ShardSupervisor
{
  public:
    virtual ~ShardSupervisor() = default;

    /// Liveness probe for \p shard_id (e.g. waitpid(WNOHANG)). Returns
    /// false when the underlying process is gone, filling \p cause with
    /// a human-readable reason ("killed by signal 9"). Transports can
    /// buffer past a peer's death, so the probe catches corpses whose
    /// pipes still read clean.
    virtual bool Probe(size_t shard_id, std::string* cause) = 0;

    /// Replaces a dead shard with a fresh process and returns its
    /// transport (owned by the supervisor, valid until the next Respawn
    /// of the same shard or supervisor destruction). nullptr when the
    /// respawn itself failed — the coordinator then gives the shard up
    /// for good.
    virtual Transport* Respawn(size_t shard_id) = 0;
};

class ShardCoordinator
{
  public:
    /// The first respawn attempt's backoff; each later attempt of the
    /// same shard doubles it.
    static constexpr double kRespawnBackoffSeconds = 0.25;

    struct Options {
        /// Per-shard service configuration (seed, workers per shard,
        /// service budget, plateau rule, tracing, metrics cadence). The
        /// seed also feeds the global-index seed derivation.
        ServiceConfig service;
        /// Forward corpus/yield gossip between shards. Off, shards only
        /// dedup at the coordinator's merge — the ablation baseline the
        /// bench measures against.
        bool gossip = true;
        /// Invoked (on the coordinator's Run thread) after fresh
        /// time-series samples from \p shard_id merged into
        /// cluster_series() — the live monitor / NDJSON streaming hook.
        /// Reading cluster_series() from inside is safe; Run() is
        /// blocked while the callback executes.
        std::function<void(size_t shard_id)> on_series_update;
        /// Silence on every frame from a *busy* shard beyond this
        /// declares it dead (hung worker, wedged pipe). A busy worker
        /// sends progress every ShardWorker gossip interval; the
        /// deadline is generous because a loaded machine can stall it.
        double silence_timeout_seconds = 10.0;
        /// Quorum: once fewer shards than this are live, the batch
        /// stops requeueing, fills the missing results with cancelled
        /// placeholders (stop_source "shard_death") and returns a
        /// degraded partial report instead of an error. The floor of 1
        /// is implicit — with zero live shards nothing can run.
        size_t min_live_shards = 1;
        /// Respawn budget per shard (0 = never respawn). Needs a
        /// supervisor; each attempt backs off exponentially from
        /// kRespawnBackoffSeconds.
        size_t max_respawns = 0;
        /// Optional process-level liveness/revival hook (not owned).
        ShardSupervisor* supervisor = nullptr;
        /// Invoked (on the Run thread) when a shard is declared dead,
        /// after its remainder moved to the requeue list.
        std::function<void(size_t shard_id, const std::string& cause)>
            on_shard_death;
        /// Invoked (on the Run thread) for every progress frame that
        /// carries at least one result, after it merged — the chaos
        /// harness's trigger point ("kill the victim once it is provably
        /// mid-batch").
        std::function<void(size_t shard_id)> on_results_streamed;
    };

    /// Per-shard outcome, kept for the merged report.
    struct ShardOutcome {
        size_t shard_id = 0;
        size_t jobs_assigned = 0;
        /// Derived from `telemetry` when Run returns
        /// (service::StatsFromMetrics), with the configuration fields
        /// from Options::service.
        service::ServiceStats stats;
        /// Entries this shard contributed to the merged corpus vs. ones
        /// already merged (filled as its progress frames merge).
        size_t corpus_contributed = 0;
        size_t corpus_duplicate = 0;
        /// Latest metrics snapshot: updated live from telemetry-bearing
        /// progress frames mid-batch, then replaced by the final
        /// result's snapshot when the shard reports (stacked across the
        /// shard's runs when it ran more than once).
        obs::MetricsSnapshot telemetry;
        /// Latest per-location attribution table, same lifecycle as
        /// `telemetry` (snapshots are cumulative, so redelivery is
        /// idempotent).
        obs::AttributionSnapshot attribution;
        /// Fault-tolerance outcome. dead reflects the shard's *final*
        /// state — a successfully respawned shard is not dead, but
        /// death_cause keeps its latest obituary for the report.
        bool dead = false;
        std::string death_cause;
        size_t respawns = 0;
        /// Jobs this shard's deaths sent back to the requeue list.
        size_t jobs_requeued = 0;
    };

    /// Batch-wide fault counters, read from the coordinator's telemetry:
    /// shard.deaths_total / shard.jobs_requeued_total /
    /// shard.respawns_total.
    struct FaultStats {
        uint64_t deaths = 0;
        uint64_t jobs_requeued = 0;
        uint64_t respawns = 0;
    };

    /// Aggregated cross-shard telemetry, read from the snapshots: the
    /// coordinator's shard.gossip_messages / shard.fingerprints_gossiped
    /// / shard.merge_duplicates counters and the cluster's
    /// corpus.remote_duplicate_hits / service.jobs_plateau_cancelled.
    struct CrossShardStats {
        /// Progress frames forwarded between shards as gossip.
        uint64_t gossip_messages = 0;
        /// Fingerprints those deltas carried.
        uint64_t fingerprints_gossiped = 0;
        /// Local discoveries suppressed at shards by gossiped
        /// fingerprints (summed corpus.remote_duplicate_hits).
        uint64_t remote_duplicate_hits = 0;
        /// Jobs cancelled before dispatch because their workload
        /// plateaued, summed over shards. Counts *every* plateau
        /// cancellation — purely local zero-yield streaks included —
        /// so it is nonzero even with gossip off; gossip raises it by
        /// feeding remote streaks into each shard's threshold earlier.
        /// Compare a gossip-on vs gossip-off run (bench_sharding does)
        /// to isolate the cross-shard contribution.
        uint64_t jobs_suppressed = 0;
        /// Duplicate keys found when merging shard corpora: overlap
        /// gossip did not suppress in time.
        uint64_t merge_duplicates = 0;
    };

    explicit ShardCoordinator(Options options);

    /// Runs \p jobs over the shard \p transports (one per worker, all
    /// already connected). Blocks until every job is accounted for —
    /// by a streamed result (from a shard that may have died later), a
    /// deterministic rerun on a survivor, or (below the quorum) a
    /// cancelled placeholder. Returns false
    /// with \p error only on caller mistakes (no transports,
    /// non-serializable specs); shard deaths degrade the report
    /// (degraded() == true) rather than fail the batch.
    bool Run(const std::vector<service::JobSpec>& jobs,
             const std::vector<Transport*>& transports,
             std::string* error);

    /// Results indexed by global submission order (as if one service had
    /// run the whole batch).
    const std::vector<service::JobResult>& results() const
    {
        return results_;
    }

    /// The merged, deduplicated cross-shard corpus.
    const service::TestCorpus& corpus() const { return corpus_; }

    /// The batch's stats, derived from cluster_telemetry() when Run
    /// returns (service::StatsFromMetrics): counts and engine/solver
    /// seconds sum over shards, wall_seconds is the slowest shard's (the
    /// batch's critical path) and corpus_size is the merged corpus's.
    const service::ServiceStats& merged_stats() const
    {
        return merged_stats_;
    }

    const std::vector<ShardOutcome>& shards() const { return shards_; }
    /// Read from the snapshots, so valid once Run returns.
    CrossShardStats cross_shard() const;

    /// True when any shard died during the last Run (even if a respawn
    /// or requeue fully recovered the work — the report still flags
    /// that the batch did not execute as planned).
    bool degraded() const { return degraded_; }
    /// Read from coordinator_telemetry(), so valid once Run returns.
    FaultStats fault() const;

    /// Coordinator-side telemetry (fault and gossip counters), pid 0 in
    /// traces. Also merged into cluster_telemetry().
    const obs::MetricsSnapshot& coordinator_telemetry() const
    {
        return coordinator_telemetry_;
    }

    /// Every shard's latest snapshot (a dead shard's included) and the
    /// coordinator's merged into one cluster view: counters sum, gauges
    /// fold into `_max`/`_total`, histograms add bucket-wise (so cluster
    /// quantiles reflect every shard's latency samples). Valid once Run
    /// returns.
    const obs::MetricsSnapshot& cluster_telemetry() const
    {
        return cluster_telemetry_;
    }

    /// Cluster-wide attribution table: every shard's latest snapshot
    /// folded at call time (AttributionSnapshot::MergeFrom is
    /// commutative, so the fold is order-independent regardless of
    /// which shards reported when). Mid-batch reads follow the same
    /// thread rules as cluster_telemetry().
    obs::AttributionSnapshot ClusterAttribution() const;

    /// Merged cluster time-series: one series per shard ("shard<N>"),
    /// fed live from progress frames and completed by each result's
    /// tail.
    /// Mid-batch reads are only safe from Options::on_series_update
    /// (same thread as Run); after Run returns, any thread may read.
    const obs::ClusterSeries& cluster_series() const
    {
        return cluster_series_;
    }

    /// Trace spans shipped back by tracing-enabled workers, pid-stamped
    /// shard_id + 1 (pid 0 stays free for a coordinator-side tracer).
    const std::vector<obs::TraceEvent>& trace_events() const
    {
        return trace_events_;
    }

    /// Chrome trace-event JSON ("traceEvents" array form) of every span
    /// collected from the workers — load in chrome://tracing or
    /// Perfetto. Strict-parser valid.
    std::string RenderTrace() const
    {
        return obs::RenderChromeTrace(trace_events_);
    }

    /// Streams the collected trace spans to \p path without building the
    /// whole document in memory (obs::WriteChromeTraceFile). False with
    /// \p error on I/O failure.
    bool WriteTraceFile(const std::string& path,
                        std::string* error = nullptr) const
    {
        return obs::WriteChromeTraceFile(path, trace_events_, error);
    }

    /// One JSON document: merged stats/jobs/corpus (the same schema as a
    /// single service report, under "merged") plus per-shard stats and
    /// the cross-shard dedup counters. Strict-parser valid.
    std::string RenderMergedReport(
        const service::ReportOptions& options = {}) const;

    /// The partitioning rule (global job index -> shard), exposed so
    /// tests and benches can reason about placement.
    static size_t ShardFor(size_t job_index, size_t num_shards)
    {
        return job_index % num_shards;
    }

  private:
    Options options_;
    std::vector<service::JobResult> results_;
    service::TestCorpus corpus_;
    service::ServiceStats merged_stats_;
    std::vector<ShardOutcome> shards_;
    bool degraded_ = false;
    obs::MetricsSnapshot coordinator_telemetry_;
    obs::MetricsSnapshot cluster_telemetry_;
    obs::ClusterSeries cluster_series_;
    std::vector<obs::TraceEvent> trace_events_;
    double wall_seconds_ = 0.0;
};

/// Convenience harness: runs \p jobs over \p num_shards in-process
/// workers, each on its own thread behind a loopback transport pair.
/// The deterministic-transport path used by tests and bench_sharding.
bool RunLoopbackShards(ShardCoordinator* coordinator,
                       const std::vector<service::JobSpec>& jobs,
                       size_t num_shards, std::string* error);

}  // namespace chef::shard

#endif  // CHEF_SHARD_COORDINATOR_H_
