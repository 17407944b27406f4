#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <utility>

#include "service/service.h"
#include "shard/worker.h"
#include "support/json.h"

namespace chef::shard {

namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

Clock::duration
DurationFrom(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

bool
Fail(std::string* error, const std::string& reason)
{
    if (error != nullptr) {
        *error = reason;
    }
    return false;
}

// The coordinator's own counters. fault() and cross_shard() read them
// back from coordinator_telemetry_.
constexpr char kDeathsCounter[] = "shard.deaths_total";
constexpr char kJobsRequeuedCounter[] = "shard.jobs_requeued_total";
constexpr char kRespawnsCounter[] = "shard.respawns_total";
constexpr char kGossipMessagesCounter[] = "shard.gossip_messages";
constexpr char kFingerprintsGossipedCounter[] = "shard.fingerprints_gossiped";
constexpr char kMergeDuplicatesCounter[] = "shard.merge_duplicates";

/// Idle sleep after a multiplex sweep in which no shard had a message
/// (each sweep polls every transport without blocking).
constexpr int kIdleSleepMs = 10;
/// Seconds to wait for a worker's hello (subprocess spawn + exec can be
/// slow under load).
constexpr double kHelloTimeoutSeconds = 30.0;

/// One shard's (or the cluster's) stats: the counts from its telemetry,
/// the configuration every shard ran with.
service::ServiceStats
StatsFor(const obs::MetricsSnapshot& telemetry, const ServiceConfig& config)
{
    service::ServiceStats stats = service::StatsFromMetrics(telemetry);
    stats.num_workers = std::max<size_t>(1, config.num_workers);
    stats.schedule_policy = config.schedule_policy;
    stats.solver_cache_shared = config.share_solver_cache;
    return stats;
}

}  // namespace

ShardCoordinator::ShardCoordinator(Options options)
    : options_(std::move(options))
{
}

bool
ShardCoordinator::Run(const std::vector<service::JobSpec>& jobs,
                      const std::vector<Transport*>& transports,
                      std::string* error)
{
    const auto start = Clock::now();
    const size_t num_shards = transports.size();
    if (num_shards == 0) {
        return Fail(error, "no shard transports");
    }

    // Reject non-serializable specs up front, before any shard has been
    // asked to do anything — a clear error at submit beats a worker
    // silently running a spec with its callbacks dropped.
    for (const service::JobSpec& spec : jobs) {
        std::string why;
        if (!CheckSerializable(spec, &why)) {
            return Fail(error, why);
        }
    }

    results_.clear();
    results_.resize(jobs.size());
    corpus_.Clear();
    shards_.clear();
    shards_.resize(num_shards);
    merged_stats_ = service::ServiceStats{};
    degraded_ = false;
    coordinator_telemetry_ = obs::MetricsSnapshot{};
    cluster_telemetry_ = obs::MetricsSnapshot{};
    cluster_series_.Clear();
    trace_events_.clear();

    // Coordinator-side telemetry: fault and gossip counters for the
    // merged report plus a pid-0 tracer, so death instants and requeue
    // spans line up against the workers' spans (pid shard_id + 1) in one
    // timeline.
    obs::MetricsRegistry metrics;
    obs::Counter* deaths_total = metrics.counter(kDeathsCounter);
    obs::Counter* jobs_requeued_total = metrics.counter(kJobsRequeuedCounter);
    obs::Counter* respawns_total = metrics.counter(kRespawnsCounter);
    obs::Counter* gossip_messages = metrics.counter(kGossipMessagesCounter);
    obs::Counter* fingerprints_gossiped =
        metrics.counter(kFingerprintsGossipedCounter);
    obs::Counter* merge_duplicates = metrics.counter(kMergeDuplicatesCounter);
    obs::PhaseTracer tracer;
    tracer.set_pid(0);
    tracer.set_enabled(options_.service.tracing);

    const auto silence_timeout =
        DurationFrom(options_.silence_timeout_seconds);
    const size_t quorum = std::max<size_t>(1, options_.min_live_shards);

    // Per-shard runtime state machine. kIdle means greeted and between
    // runs — the dispatch step below hands idle shards work.
    enum class State { kAwaitingHello, kBusy, kIdle, kDead };
    struct Runtime {
        State state = State::kAwaitingHello;
        Transport* transport = nullptr;
        /// The shard's corpus source and series name ("shard<N>").
        std::string source;
        Clock::time_point last_heard;
        Clock::time_point hello_deadline;
        /// Jobs dispatched in the current run.
        std::vector<WireJob> inflight;
        bool respawn_scheduled = false;
        Clock::time_point respawn_at;
        /// Metrics and attribution totals of this shard's runs that are
        /// over (reported, or cut short by a death), once there is one.
        /// Each run starts its counters from zero, so a later run's
        /// telemetry stacks on top of these.
        bool has_base = false;
        obs::MetricsSnapshot base_metrics;
        obs::AttributionSnapshot base_attribution;
        /// Where the current run's time-series samples continue this
        /// shard's series. Each run's recorder restarts its index at 1,
        /// its clock at 0 and its counters at zero, so a later run's
        /// samples are offset past the shard's last sample and stacked
        /// on its counters and histograms (gauges are levels and stay
        /// the run's own).
        obs::SeriesSample series_base;
    };
    std::vector<Runtime> runtime(num_shards);

    // One *global* hello deadline shared by every shard: the workers
    // spawn concurrently and their waits overlap, so per-shard serial
    // deadlines would let total patience grow with shard count.
    const auto hello_deadline =
        start + DurationFrom(kHelloTimeoutSeconds);
    for (size_t shard = 0; shard < num_shards; ++shard) {
        shards_[shard].shard_id = shard;
        runtime[shard].transport = transports[shard];
        runtime[shard].last_heard = start;
        runtime[shard].hello_deadline = hello_deadline;
        runtime[shard].source = "shard" + std::to_string(shard);
    }

    // Partition round-robin by global index, deriving each job's seed
    // from that index so neither the partition nor a later requeue onto
    // a different shard can change per-job results.
    std::vector<std::vector<WireJob>> partitions(num_shards);
    for (size_t index = 0; index < jobs.size(); ++index) {
        WireJob job;
        job.job_index = index;
        job.spec = jobs[index];
        if (!job.spec.exact_seed) {
            job.spec.seed = service::ExplorationService::DeriveJobSeed(
                options_.service.seed, index, job.spec.seed);
            job.spec.exact_seed = true;
        }
        partitions[ShardFor(index, num_shards)].push_back(std::move(job));
    }

    // Which global jobs already have a result, streamed on a progress
    // frame (possibly by a shard that died later).
    std::vector<char> have_result(jobs.size(), 0);
    std::vector<WireJob> pending_requeue;
    size_t live_shards = num_shards;

    const auto record_result = [&](service::JobResult&& job) {
        if (job.job_index >= results_.size()) {
            return false;  // Corrupt index; drop rather than crash.
        }
        have_result[job.job_index] = 1;
        results_[job.job_index] = std::move(job);
        return true;
    };

    // send_run can kill (send failure) and mark_dead requeues what
    // send_run dispatched — std::function closes the cycle.
    std::function<void(size_t, const std::string&)> mark_dead;

    const auto send_run = [&](size_t shard, std::vector<WireJob> batch) {
        Runtime& rt = runtime[shard];
        const std::vector<obs::SeriesSample>* series =
            cluster_series_.SeriesFor(rt.source);
        if (series != nullptr && !series->empty()) {
            rt.series_base = series->back();
            rt.series_base.metrics.gauges.clear();
            // The new run's clock starts about now; the first run's
            // started about when Run did.
            rt.series_base.t_seconds =
                std::max(rt.series_base.t_seconds, SecondsSince(start));
        }
        RunRequest request;
        request.shard_id = shard;
        request.num_shards = num_shards;
        request.service = options_.service;
        request.jobs = std::move(batch);
        const std::string line = EncodeRun(request);
        rt.inflight = std::move(request.jobs);
        shards_[shard].jobs_assigned += rt.inflight.size();
        rt.state = State::kBusy;
        rt.last_heard = Clock::now();
        if (!rt.transport->Send(line)) {
            mark_dead(shard, "transport closed on send");
        }
    };

    mark_dead = [&](size_t shard, const std::string& cause) {
        Runtime& rt = runtime[shard];
        if (rt.state == State::kDead) {
            return;
        }
        if (rt.state == State::kBusy) {
            // The run is over: its latest telemetry becomes the base a
            // later run (after a respawn) stacks on, so its counts stay
            // counted.
            rt.has_base = true;
            rt.base_metrics = shards_[shard].telemetry;
            rt.base_attribution = shards_[shard].attribution;
        }
        rt.state = State::kDead;
        rt.transport->Close();
        degraded_ = true;
        deaths_total->Add();
        shards_[shard].dead = true;
        shards_[shard].death_cause = cause;
        tracer.RecordInstant(
            "shard_death", "fault",
            "shard " + std::to_string(shard) + ": " + cause);
        // Requeue the remainder. A job with a streamed result already
        // has its discoveries, inputs included, in the merged corpus
        // (they rode the same progress frame), so only genuinely
        // unfinished jobs rerun — bit-identical thanks to global-index
        // seeds.
        size_t requeued = 0;
        const auto requeue = [&](std::vector<WireJob>* batch) {
            for (WireJob& job : *batch) {
                if (have_result[job.job_index]) {
                    continue;
                }
                pending_requeue.push_back(std::move(job));
                ++requeued;
            }
            batch->clear();
        };
        requeue(&rt.inflight);
        requeue(&partitions[shard]);  // Died before its first dispatch.
        shards_[shard].jobs_requeued += requeued;
        jobs_requeued_total->Add(requeued);
        if (options_.on_shard_death) {
            options_.on_shard_death(shard, cause);
        }
        if (options_.supervisor != nullptr &&
            shards_[shard].respawns < options_.max_respawns) {
            // Exponential backoff keyed on attempts already burned.
            rt.respawn_scheduled = true;
            rt.respawn_at =
                Clock::now() +
                DurationFrom(options_.respawn_backoff_seconds *
                             static_cast<double>(
                                 uint64_t{1} << std::min<size_t>(
                                     shards_[shard].respawns, 16)));
        } else {
            --live_shards;
        }
    };

    // One path for the telemetry of progress and result frames alike:
    // the bundle's metrics and attribution are cumulative over the
    // shard's current run, so the latest replaces the previous one, on
    // top of the shard's runs that are over. Series samples continue the
    // shard's series from series_base; the cluster series deduplicates
    // them by index.
    const auto absorb_telemetry = [&](size_t shard, Telemetry&& telemetry) {
        ShardOutcome& outcome = shards_[shard];
        const Runtime& rt = runtime[shard];
        for (obs::SeriesSample& sample : telemetry.series) {
            sample.index += rt.series_base.index;
            sample.t_seconds += rt.series_base.t_seconds;
            if (rt.series_base.index == 0) {
                continue;  // The shard's first run: nothing to stack on.
            }
            obs::MetricsSnapshot stacked = rt.series_base.metrics;
            std::vector<std::pair<std::string, int64_t>> gauges =
                std::move(sample.metrics.gauges);
            sample.metrics.gauges.clear();
            stacked.MergeFrom(sample.metrics);
            stacked.gauges = std::move(gauges);
            sample.metrics = std::move(stacked);
        }
        if (!telemetry.series.empty() &&
            cluster_series_.Update(rt.source, telemetry.series) > 0 &&
            options_.on_series_update) {
            options_.on_series_update(shard);
        }
        if (rt.has_base) {
            outcome.telemetry = rt.base_metrics;
            outcome.telemetry.MergeFrom(telemetry.metrics);
        } else {
            outcome.telemetry = std::move(telemetry.metrics);
        }
        if (!telemetry.attribution) {
            return;  // Between metrics ticks: keep the latest table.
        }
        if (rt.has_base) {
            outcome.attribution = rt.base_attribution;
            outcome.attribution.MergeFrom(*telemetry.attribution);
        } else {
            outcome.attribution = std::move(*telemetry.attribution);
        }
    };

    // Results and corpus entries arrive here, once each. The entries are
    // full (inputs included), so a shard that dies later leaves nothing
    // behind that the merged corpus lacks.
    const auto merge_progress = [&](size_t shard,
                                    ProgressMessage&& progress) {
        ShardOutcome& outcome = shards_[shard];
        const bool streamed = !progress.results.empty();
        for (service::JobResult& job : progress.results) {
            record_result(std::move(job));
        }
        const service::TestCorpus::MergeStats merge =
            corpus_.MergeFrom(progress.corpus);
        outcome.corpus_contributed += merge.inserted;
        outcome.corpus_duplicate += merge.duplicates;
        merge_duplicates->Add(merge.duplicates);
        if (progress.telemetry) {
            absorb_telemetry(shard, std::move(*progress.telemetry));
        }
        if (options_.gossip) {
            gossip_messages->Add();
            fingerprints_gossiped->Add(progress.corpus.entries.size());
            // Forward the compact form: receivers key remote state by
            // delta.source, so rebroadcast order cannot skew the merged
            // view. The producing shard never sees its own delta back.
            const std::string line_out = EncodeGossip(progress.corpus);
            for (size_t other = 0; other < num_shards; ++other) {
                if (other == shard ||
                    runtime[other].state != State::kBusy) {
                    continue;
                }
                if (!runtime[other].transport->Send(line_out)) {
                    mark_dead(other, "transport closed on send");
                }
            }
        }
        if (streamed && options_.on_results_streamed) {
            options_.on_results_streamed(shard);
        }
    };

    // The run's end: its final telemetry and trace. Its results and
    // entries came on the progress frames before it.
    const auto merge_result = [&](size_t shard, ResultMessage&& result) {
        ShardOutcome& outcome = shards_[shard];
        Runtime& rt = runtime[shard];
        absorb_telemetry(shard, std::move(result.telemetry));
        rt.has_base = true;
        rt.base_metrics = outcome.telemetry;
        rt.base_attribution = outcome.attribution;
        trace_events_.insert(trace_events_.end(), result.trace.begin(),
                             result.trace.end());
        rt.inflight.clear();
        rt.state = State::kIdle;
    };

    const auto handle_message = [&](size_t shard, Message&& message) {
        Runtime& rt = runtime[shard];
        rt.last_heard = Clock::now();
        switch (message.type) {
          case MessageType::kHello:
            if (rt.state != State::kAwaitingHello) {
                break;  // Stale re-hello; ignore.
            }
            if (message.protocol_version != kProtocolVersion) {
                mark_dead(shard,
                          "protocol version " +
                              std::to_string(message.protocol_version) +
                              " != " + std::to_string(kProtocolVersion));
                break;
            }
            rt.state = State::kIdle;
            break;
          case MessageType::kProgress:
            merge_progress(shard, std::move(message.progress));
            break;
          case MessageType::kResult:
            merge_result(shard, std::move(message.result));
            break;
          case MessageType::kError:
            mark_dead(shard, "worker error: " + message.error);
            break;
          default:
            break;
        }
    };

    // The unified multiplex loop: respawn due shards, drain every live
    // transport without blocking, enforce deadlines, dispatch work to
    // idle shards. One idle sleep per quiet sweep bounds the spin.
    for (;;) {
        const auto now = Clock::now();
        bool progressed = false;

        // Respawns whose backoff expired.
        for (size_t shard = 0; shard < num_shards; ++shard) {
            Runtime& rt = runtime[shard];
            if (rt.state != State::kDead || !rt.respawn_scheduled ||
                now < rt.respawn_at) {
                continue;
            }
            rt.respawn_scheduled = false;
            ++shards_[shard].respawns;
            respawns_total->Add();
            Transport* fresh = options_.supervisor->Respawn(shard);
            if (fresh == nullptr) {
                --live_shards;  // Respawn failed: given up for good.
                continue;
            }
            rt.transport = fresh;
            rt.state = State::kAwaitingHello;
            rt.last_heard = Clock::now();
            rt.hello_deadline =
                Clock::now() + DurationFrom(kHelloTimeoutSeconds);
            // Alive again; death_cause stays as the latest obituary.
            shards_[shard].dead = false;
            tracer.RecordInstant("shard_respawn", "fault",
                                 "shard " + std::to_string(shard));
            progressed = true;
        }

        for (size_t shard = 0; shard < num_shards; ++shard) {
            Runtime& rt = runtime[shard];
            if (rt.state == State::kDead) {
                continue;
            }
            // Drain everything queued on this transport so one chatty
            // shard cannot add a sweep of latency per message.
            for (;;) {
                std::string line;
                const Transport::RecvStatus status =
                    rt.transport->Receive(&line, /*timeout_ms=*/0);
                if (status == Transport::RecvStatus::kTimeout) {
                    break;
                }
                if (status == Transport::RecvStatus::kClosed) {
                    std::string cause = rt.state == State::kAwaitingHello
                                            ? "transport closed before hello"
                                            : "transport closed";
                    std::string probed;
                    if (options_.supervisor != nullptr &&
                        !options_.supervisor->Probe(shard, &probed) &&
                        !probed.empty()) {
                        cause += " (" + probed + ")";
                    }
                    mark_dead(shard, cause);
                    break;
                }
                progressed = true;
                Message message;
                std::string decode_error;
                if (!DecodeMessage(line, &message, &decode_error)) {
                    // Garbage on the wire condemns the shard, not the
                    // batch; keep a snippet for the post-mortem.
                    std::string snippet = line.substr(0, 96);
                    if (line.size() > 96) {
                        snippet += "...";
                    }
                    mark_dead(shard, "malformed message (" + decode_error +
                                         "): '" + snippet + "'");
                    break;
                }
                handle_message(shard, std::move(message));
                if (rt.state == State::kDead) {
                    break;
                }
            }
            if (rt.state == State::kDead) {
                progressed = true;
                continue;
            }

            if (rt.state == State::kAwaitingHello &&
                now >= rt.hello_deadline) {
                mark_dead(shard, "no hello before timeout");
                progressed = true;
                continue;
            }
            // A busy worker sends progress every gossip interval, so
            // long silence means a hung worker or a wedged pipe.
            if (rt.state == State::kBusy &&
                now - rt.last_heard >= silence_timeout) {
                mark_dead(shard,
                          "silence timeout after " +
                              std::to_string(std::chrono::duration<double>(
                                                 now - rt.last_heard)
                                                 .count()) +
                              "s");
                progressed = true;
                continue;
            }
            // Process-level probe: a pipe can buffer past its process's
            // death, and a SIGSTOPped worker never closes anything.
            if (options_.supervisor != nullptr) {
                std::string probed;
                if (!options_.supervisor->Probe(shard, &probed)) {
                    mark_dead(shard, probed.empty() ? "process gone"
                                                    : probed);
                    progressed = true;
                    continue;
                }
            }
        }

        // Dispatch: initial partitions to freshly greeted shards, then
        // the requeue backlog to the first idle survivor. The quorum is
        // read live, not from the previous sweep: a death seen in this
        // sweep, a send failure earlier in this loop included, that broke
        // it must keep the dead shard's jobs off an already idle survivor.
        for (size_t shard = 0; shard < num_shards; ++shard) {
            Runtime& rt = runtime[shard];
            if (rt.state != State::kIdle) {
                continue;
            }
            if (!partitions[shard].empty()) {
                std::vector<WireJob> batch = std::move(partitions[shard]);
                partitions[shard].clear();
                send_run(shard, std::move(batch));
                progressed = true;
            } else if (!pending_requeue.empty() && live_shards >= quorum) {
                const uint64_t t0 = tracer.NowMicros();
                const size_t count = pending_requeue.size();
                std::vector<WireJob> batch = std::move(pending_requeue);
                pending_requeue.clear();
                send_run(shard, std::move(batch));
                tracer.RecordSpan("requeue_dispatch", "fault", t0,
                                  tracer.NowMicros() - t0,
                                  std::to_string(count) + " jobs -> shard " +
                                      std::to_string(shard));
                progressed = true;
            }
        }

        // Done once nothing is running, greeting, or pending respawn,
        // and the backlog is empty (or undispatchable: quorum broke).
        bool waiting = false;
        for (const Runtime& rt : runtime) {
            if (rt.state == State::kAwaitingHello ||
                rt.state == State::kBusy ||
                (rt.state == State::kDead && rt.respawn_scheduled)) {
                waiting = true;
                break;
            }
        }
        if (!waiting &&
            (pending_requeue.empty() || live_shards < quorum)) {
            break;
        }
        if (!progressed) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kIdleSleepMs));
        }
    }

    // Below-quorum leftovers become cancelled placeholders so every
    // global index still resolves — a degraded partial report, not an
    // error.
    for (const WireJob& job : pending_requeue) {
        service::JobResult placeholder;
        placeholder.job_index = job.job_index;
        placeholder.workload = job.spec.workload;
        placeholder.label = job.spec.label.empty() ? job.spec.workload
                                                   : job.spec.label;
        placeholder.status = service::JobStatus::kCancelled;
        placeholder.error = "insufficient live shards (" +
                            std::to_string(live_shards) + " < " +
                            std::to_string(quorum) + ")";
        placeholder.stop_source = "shard_death";
        placeholder.seed_used = job.spec.seed;
        record_result(std::move(placeholder));
    }
    // Defensive: any remaining hole (a worker under-reported its batch)
    // also fills in, rather than passing off a default-constructed
    // "completed" result as real.
    for (size_t index = 0; index < jobs.size(); ++index) {
        if (have_result[index]) {
            continue;
        }
        service::JobResult placeholder;
        placeholder.job_index = index;
        placeholder.workload = jobs[index].workload;
        placeholder.label = jobs[index].label.empty()
                                ? jobs[index].workload
                                : jobs[index].label;
        placeholder.status = service::JobStatus::kCancelled;
        placeholder.error = "lost to shard death";
        placeholder.stop_source = "shard_death";
        record_result(std::move(placeholder));
    }

    for (size_t shard = 0; shard < num_shards; ++shard) {
        if (runtime[shard].state != State::kDead) {
            runtime[shard].transport->Send(EncodeShutdown());
        }
    }

    // The cluster view: every shard's latest stacked telemetry (a dead
    // shard's included, so the results it streamed stay counted) plus
    // the coordinator's own counters (all zero in a fault-free run —
    // cheap, and the report schema stays uniform).
    coordinator_telemetry_ = metrics.Snapshot();
    for (const ShardOutcome& outcome : shards_) {
        cluster_telemetry_.MergeFrom(outcome.telemetry);
    }
    cluster_telemetry_.MergeFrom(coordinator_telemetry_);
    {
        std::vector<obs::TraceEvent> own = tracer.TakeEvents();
        trace_events_.insert(trace_events_.end(), own.begin(), own.end());
    }

    // Every stats view derives from the snapshots. Shards ran
    // concurrently: the batch's wall clock is the slowest shard's (the
    // critical path), while its counts sum in cluster_telemetry_.
    merged_stats_ = StatsFor(cluster_telemetry_, options_.service);
    merged_stats_.num_workers = 0;
    merged_stats_.wall_seconds = 0.0;
    for (ShardOutcome& outcome : shards_) {
        outcome.stats = StatsFor(outcome.telemetry, options_.service);
        merged_stats_.num_workers += outcome.stats.num_workers;
        merged_stats_.wall_seconds =
            std::max(merged_stats_.wall_seconds, outcome.stats.wall_seconds);
    }
    merged_stats_.corpus_size = corpus_.size();
    merged_stats_.jobs_per_second =
        merged_stats_.wall_seconds > 0.0
            ? static_cast<double>(merged_stats_.jobs_completed) /
                  merged_stats_.wall_seconds
            : 0.0;
    wall_seconds_ = SecondsSince(start);
    return true;
}

ShardCoordinator::FaultStats
ShardCoordinator::fault() const
{
    const obs::MetricsSnapshot& own = coordinator_telemetry_;
    FaultStats fault;
    fault.deaths = own.CounterValue(kDeathsCounter);
    fault.jobs_requeued = own.CounterValue(kJobsRequeuedCounter);
    fault.respawns = own.CounterValue(kRespawnsCounter);
    return fault;
}

ShardCoordinator::CrossShardStats
ShardCoordinator::cross_shard() const
{
    const obs::MetricsSnapshot& own = coordinator_telemetry_;
    CrossShardStats cross;
    cross.gossip_messages = own.CounterValue(kGossipMessagesCounter);
    cross.fingerprints_gossiped =
        own.CounterValue(kFingerprintsGossipedCounter);
    cross.merge_duplicates = own.CounterValue(kMergeDuplicatesCounter);
    cross.remote_duplicate_hits =
        cluster_telemetry_.CounterValue("corpus.remote_duplicate_hits");
    cross.jobs_suppressed =
        cluster_telemetry_.CounterValue("service.jobs_plateau_cancelled");
    return cross;
}

obs::AttributionSnapshot
ShardCoordinator::ClusterAttribution() const
{
    obs::AttributionSnapshot cluster;
    for (const ShardOutcome& shard : shards_) {
        cluster.MergeFrom(shard.attribution);
    }
    return cluster;
}

std::string
ShardCoordinator::RenderMergedReport(
    const service::ReportOptions& options) const
{
    support::JsonWriter json;
    json.BeginObject();
    json.Key("report"), json.Value("chef-shard-coordinator");
    json.Key("protocol_version"), json.Value(kProtocolVersion);
    json.Key("num_shards"), json.Value(shards_.size());
    json.Key("gossip_enabled"), json.Value(options_.gossip);
    // True when any shard died mid-batch: results may mix reruns,
    // results a dead shard streamed before it died, and (below quorum)
    // cancelled placeholders. The "fault" section and per-shard death causes say
    // why.
    json.Key("degraded"), json.Value(degraded_);
    json.Key("coordinator_wall_seconds"), json.Value(wall_seconds_);
    double solver_seconds_max_shard = 0.0;
    for (const ShardOutcome& shard : shards_) {
        solver_seconds_max_shard =
            std::max(solver_seconds_max_shard, shard.stats.solver_seconds);
    }
    // Two labeled views of solver time, because shards run concurrently:
    // the total is aggregate solver work across the cluster (it grows
    // with shard count), the max is the largest single shard's share —
    // the one comparable against a single service's solver_seconds.
    // merged.stats.solver_seconds equals the total.
    json.Key("solver_seconds_total"),
        json.Value(merged_stats_.solver_seconds);
    json.Key("solver_seconds_max_shard"),
        json.Value(solver_seconds_max_shard);
    const FaultStats fault_stats = fault();
    json.Key("fault");
    json.BeginObject();
    json.Key("deaths"), json.Value(fault_stats.deaths);
    json.Key("jobs_requeued"), json.Value(fault_stats.jobs_requeued);
    json.Key("respawns"), json.Value(fault_stats.respawns);
    json.EndObject();
    const CrossShardStats cross = cross_shard();
    json.Key("cross_shard");
    json.BeginObject();
    json.Key("gossip_messages"), json.Value(cross.gossip_messages);
    json.Key("fingerprints_gossiped"),
        json.Value(cross.fingerprints_gossiped);
    json.Key("remote_duplicate_hits"),
        json.Value(cross.remote_duplicate_hits);
    json.Key("jobs_suppressed"), json.Value(cross.jobs_suppressed);
    json.Key("merge_duplicates"), json.Value(cross.merge_duplicates);
    json.EndObject();
    json.Key("shards");
    json.BeginArray();
    for (const ShardOutcome& shard : shards_) {
        json.BeginObject();
        json.Key("shard_id"), json.Value(shard.shard_id);
        json.Key("jobs_assigned"), json.Value(shard.jobs_assigned);
        json.Key("dead"), json.Value(shard.dead);
        json.Key("death_cause"), json.Value(shard.death_cause);
        json.Key("respawns"), json.Value(shard.respawns);
        json.Key("jobs_requeued"), json.Value(shard.jobs_requeued);
        json.Key("remote_entries"),
            json.Value(shard.telemetry.CounterValue("corpus.remote_entries"));
        json.Key("remote_duplicate_hits"),
            json.Value(shard.telemetry.CounterValue(
                "corpus.remote_duplicate_hits"));
        json.Key("corpus_contributed"),
            json.Value(shard.corpus_contributed);
        json.Key("corpus_duplicate"), json.Value(shard.corpus_duplicate);
        json.Key("stats");
        service::WriteServiceStats(json, shard.stats);
        json.EndObject();
    }
    json.EndArray();
    // Cluster telemetry: per-shard metrics snapshots (final, or the
    // latest streamed one for a shard that died) plus their merge. Schema per snapshot: obs::WriteMetricsSnapshot.
    json.Key("telemetry");
    json.BeginObject();
    json.Key("shards");
    json.BeginArray();
    for (const ShardOutcome& shard : shards_) {
        json.BeginObject();
        json.Key("shard_id"), json.Value(shard.shard_id);
        json.Key("metrics");
        obs::WriteMetricsSnapshot(json, shard.telemetry);
        json.EndObject();
    }
    json.EndArray();
    // The coordinator's own fault counters (shard.deaths_total & co.),
    // also merged into "cluster".
    json.Key("coordinator");
    obs::WriteMetricsSnapshot(json, coordinator_telemetry_);
    json.Key("cluster");
    obs::WriteMetricsSnapshot(json, cluster_telemetry_);
    // Per-location attribution: each shard's latest table plus the
    // order-independent cluster fold. Schema per table:
    // obs::WriteAttributionSnapshot. Tables are empty (no workloads)
    // when the run disabled attribution.
    json.Key("attribution");
    json.BeginObject();
    json.Key("shards");
    json.BeginArray();
    for (const ShardOutcome& shard : shards_) {
        json.BeginObject();
        json.Key("shard_id"), json.Value(shard.shard_id);
        json.Key("table");
        obs::WriteAttributionSnapshot(json, shard.attribution);
        json.EndObject();
    }
    json.EndArray();
    json.Key("cluster");
    obs::WriteAttributionSnapshot(json, ClusterAttribution());
    json.EndObject();
    json.Key("trace_events"), json.Value(trace_events_.size());
    // Time-series summary: how many samples each shard shipped, plus
    // the merged coverage/progress curves as [t_seconds, value] pairs.
    // The full per-sample dump is available via RenderClusterSeriesJson
    // (chef_shard --series-out); the report keeps the bounded view.
    json.Key("series");
    json.BeginObject();
    json.Key("samples_per_source");
    json.BeginObject();
    for (const std::string& source : cluster_series_.Sources()) {
        const std::vector<obs::SeriesSample>* samples =
            cluster_series_.SeriesFor(source);
        json.Key(source.c_str());
        json.Value(samples != nullptr ? samples->size() : 0);
    }
    json.EndObject();
    json.Key("curves");
    json.BeginObject();
    {
        // Every fingerprint/jobs counter the merged view knows about:
        // the unsuffixed cluster totals and each per-workload variant.
        const obs::MetricsSnapshot merged = cluster_series_.MergedLatest();
        const std::string fp_prefix = obs::kFingerprintsNewCounter;
        const std::string jobs_prefix = obs::kJobsFinishedCounter;
        for (const auto& [name, value] : merged.counters) {
            (void)value;
            const bool curve_counter =
                name == fp_prefix || name == jobs_prefix ||
                name.compare(0, fp_prefix.size() + 1, fp_prefix + ".") ==
                    0 ||
                name.compare(0, jobs_prefix.size() + 1,
                             jobs_prefix + ".") == 0;
            if (!curve_counter) {
                continue;
            }
            json.Key(name.c_str());
            json.BeginArray();
            for (const auto& [t, v] :
                 cluster_series_.MergedCounterCurve(name)) {
                json.BeginArray();
                json.Value(t);
                json.Value(v);
                json.EndArray();
            }
            json.EndArray();
        }
    }
    json.EndObject();
    json.EndObject();
    json.EndObject();
    // The merged view reuses the single-service report schema verbatim,
    // so existing report consumers can read a sharded batch by looking
    // one key deeper.
    json.Key("merged");
    json.RawValue(
        service::RenderJsonReport(merged_stats_, results_, corpus_,
                                  options));
    json.EndObject();
    return json.Take();
}

bool
RunLoopbackShards(ShardCoordinator* coordinator,
                  const std::vector<service::JobSpec>& jobs,
                  size_t num_shards, std::string* error)
{
    if (num_shards == 0) {
        return Fail(error, "num_shards must be >= 1");
    }
    std::vector<LoopbackPair> pairs;
    std::vector<Transport*> coordinator_side;
    pairs.reserve(num_shards);
    for (size_t shard = 0; shard < num_shards; ++shard) {
        pairs.push_back(CreateLoopbackPair());
        coordinator_side.push_back(pairs.back().a.get());
    }
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (size_t shard = 0; shard < num_shards; ++shard) {
        Transport* endpoint = pairs[shard].b.get();
        workers.emplace_back([endpoint] {
            ShardWorker worker(ShardWorker::Options{}, endpoint);
            worker.Serve();
        });
    }
    const bool ok = coordinator->Run(jobs, coordinator_side, error);
    for (size_t shard = 0; shard < num_shards; ++shard) {
        // Shutdown was sent on success; closing unblocks workers in
        // every case.
        pairs[shard].a->Close();
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    return ok;
}

}  // namespace chef::shard
