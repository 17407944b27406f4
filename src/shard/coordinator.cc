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

/// Folds one requeue round's worker stats into a shard's running total.
/// Work counters and clocks sum (rounds run back-to-back on the same
/// shard); gauge-like fields keep the latest round's value.
void
AccumulateShardStats(service::ServiceStats* into,
                     const service::ServiceStats& s)
{
    into->jobs_submitted += s.jobs_submitted;
    into->jobs_completed += s.jobs_completed;
    into->jobs_cancelled += s.jobs_cancelled;
    into->jobs_plateau_cancelled += s.jobs_plateau_cancelled;
    into->jobs_failed += s.jobs_failed;
    into->ll_paths += s.ll_paths;
    into->hl_paths += s.hl_paths;
    into->hangs += s.hangs;
    into->solver_queries += s.solver_queries;
    into->solver_sliced_queries += s.solver_sliced_queries;
    into->solver_incremental_sat_calls += s.solver_incremental_sat_calls;
    into->solver_clauses_loaded += s.solver_clauses_loaded;
    into->solver_seconds += s.solver_seconds;
    into->solver_cache_shared =
        into->solver_cache_shared || s.solver_cache_shared;
    into->shared_cache_hits += s.shared_cache_hits;
    into->shared_cache_misses += s.shared_cache_misses;
    into->shared_cache_inserts += s.shared_cache_inserts;
    into->shared_cache_evictions += s.shared_cache_evictions;
    into->shared_cache_model_hits += s.shared_cache_model_hits;
    into->shared_cache_bytes = s.shared_cache_bytes;
    into->shared_cache_entries = s.shared_cache_entries;
    into->engine_seconds += s.engine_seconds;
    into->wall_seconds += s.wall_seconds;
    into->num_workers = std::max(into->num_workers, s.num_workers);
    into->events_delivered += s.events_delivered;
    into->corpus_size = s.corpus_size;
    into->jobs_per_second = s.jobs_per_second;
    into->schedule_policy = s.schedule_policy;
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
    cross_shard_ = CrossShardStats{};
    merged_stats_ = service::ServiceStats{};
    degraded_ = false;
    fault_ = FaultStats{};
    coordinator_telemetry_ = obs::MetricsSnapshot{};
    cluster_telemetry_ = obs::MetricsSnapshot{};
    cluster_series_.Clear();
    trace_events_.clear();
    solver_seconds_max_shard_ = 0.0;

    // Coordinator-side fault telemetry: counters for the merged report
    // plus a pid-0 tracer, so death instants and requeue spans line up
    // against the workers' spans (pid shard_id + 1) in one timeline.
    obs::MetricsRegistry metrics;
    obs::Counter* deaths_total = metrics.counter("shard.deaths_total");
    obs::Counter* jobs_requeued_total =
        metrics.counter("shard.jobs_requeued_total");
    obs::Counter* heartbeats_missed =
        metrics.counter("shard.heartbeats_missed");
    obs::Counter* respawns_total = metrics.counter("shard.respawns_total");
    obs::PhaseTracer tracer;
    tracer.set_pid(0);
    tracer.set_enabled(options_.service.tracing);

    const bool heartbeats = options_.heartbeat_interval_seconds > 0.0;
    const auto heartbeat_interval =
        DurationFrom(options_.heartbeat_interval_seconds);
    const auto heartbeat_timeout =
        DurationFrom(options_.heartbeat_timeout_seconds);
    const size_t quorum = std::max<size_t>(1, options_.min_live_shards);

    // Per-shard runtime state machine. kIdle means greeted and between
    // runs — the dispatch step below hands idle shards work.
    enum class State { kAwaitingHello, kBusy, kIdle, kDead };
    struct Runtime {
        State state = State::kAwaitingHello;
        Transport* transport = nullptr;
        Clock::time_point last_heard;
        Clock::time_point hello_deadline;
        /// Heartbeat intervals of current silence already counted into
        /// shard.heartbeats_missed (resets on any message).
        uint64_t silent_intervals = 0;
        /// Whether this shard has sent any heartbeat for the current
        /// run. Missed-beat telemetry only counts gaps after the first
        /// beat: run startup (service construction, thread spawn) is
        /// legitimately silent and beats have not begun yet. The
        /// heartbeat *timeout* still applies from dispatch, so a worker
        /// that hangs before its first beat is still declared dead.
        bool beat_seen = false;
        /// Jobs dispatched in the current run, not yet reported.
        std::vector<WireJob> inflight;
        bool reported_once = false;
        bool respawn_scheduled = false;
        Clock::time_point respawn_at;
        /// Every fingerprint this shard gossiped. If the shard dies,
        /// these placeholders are all that remains of its completed-
        /// but-unreported discoveries; merging them at the end keeps
        /// the merged corpus key set identical to an undisturbed run.
        service::TestCorpus::Delta retained;
        /// Metrics and attribution totals of the runs this shard has
        /// already reported. Each run starts its counters from zero, so
        /// a requeue round's telemetry stacks on top of these.
        obs::MetricsSnapshot reported_metrics;
        obs::AttributionSnapshot reported_attribution;
    };
    std::vector<Runtime> runtime(num_shards);

    // One *global* hello deadline shared by every shard: the workers
    // spawn concurrently and their waits overlap, so per-shard serial
    // deadlines would let total patience grow with shard count.
    const auto hello_deadline =
        start + DurationFrom(options_.hello_timeout_seconds);
    for (size_t shard = 0; shard < num_shards; ++shard) {
        shards_[shard].shard_id = shard;
        runtime[shard].transport = transports[shard];
        runtime[shard].last_heard = start;
        runtime[shard].hello_deadline = hello_deadline;
        runtime[shard].retained.source = "shard" + std::to_string(shard);
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

    // Which global jobs already have a result — final, or streamed over
    // a heartbeat by a shard that died later.
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
        RunRequest request;
        request.shard_id = shard;
        request.num_shards = num_shards;
        request.heartbeat_interval_seconds =
            heartbeats ? options_.heartbeat_interval_seconds : 0.0;
        request.service = options_.service;
        request.jobs = std::move(batch);
        const std::string line = EncodeRun(request);
        rt.inflight = std::move(request.jobs);
        shards_[shard].jobs_assigned += rt.inflight.size();
        rt.state = State::kBusy;
        rt.last_heard = Clock::now();
        rt.silent_intervals = 0;
        rt.beat_seen = false;
        if (!rt.transport->Send(line)) {
            mark_dead(shard, "send failed");
        }
    };

    mark_dead = [&](size_t shard, const std::string& cause) {
        Runtime& rt = runtime[shard];
        if (rt.state == State::kDead) {
            return;
        }
        rt.state = State::kDead;
        rt.transport->Close();
        degraded_ = true;
        ++fault_.deaths;
        deaths_total->Add();
        shards_[shard].dead = true;
        shards_[shard].death_cause = cause;
        tracer.RecordInstant(
            "shard_death", "fault",
            "shard " + std::to_string(shard) + ": " + cause);
        // Requeue the remainder. With gossip on, a heartbeat-
        // acknowledged job's discoveries are already covered by this
        // shard's retained fingerprints, so only genuinely unfinished
        // jobs rerun; with gossip off nothing covers them, so every
        // inflight job reruns — bit-identical thanks to global-index
        // seeds, which makes overwriting a streamed result harmless.
        size_t requeued = 0;
        const auto requeue = [&](std::vector<WireJob>* batch) {
            for (WireJob& job : *batch) {
                if (options_.gossip && have_result[job.job_index]) {
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
        fault_.jobs_requeued += requeued;
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

    // One path for the telemetry of gossip and result frames alike: the
    // bundle's metrics and attribution are cumulative over the shard's
    // current run, so the latest replaces the previous one, on top of
    // the runs the shard already reported; the cluster series
    // deduplicates samples by index.
    const auto absorb_telemetry = [&](size_t shard, Telemetry&& telemetry) {
        ShardOutcome& outcome = shards_[shard];
        const Runtime& rt = runtime[shard];
        if (!telemetry.series.empty() &&
            cluster_series_.Update("shard" + std::to_string(shard),
                                   telemetry.series) > 0 &&
            options_.on_series_update) {
            options_.on_series_update(shard);
        }
        if (rt.reported_once) {
            outcome.telemetry = rt.reported_metrics;
            outcome.telemetry.MergeFrom(telemetry.metrics);
            outcome.attribution = rt.reported_attribution;
            outcome.attribution.MergeFrom(telemetry.attribution);
        } else {
            outcome.telemetry = std::move(telemetry.metrics);
            outcome.attribution = std::move(telemetry.attribution);
        }
    };

    const auto merge_result = [&](size_t shard, ResultMessage&& result) {
        ShardOutcome& outcome = shards_[shard];
        Runtime& rt = runtime[shard];
        cluster_telemetry_.MergeFrom(result.telemetry.metrics);
        absorb_telemetry(shard, std::move(result.telemetry));
        rt.reported_once = true;
        rt.reported_metrics = outcome.telemetry;
        rt.reported_attribution = outcome.attribution;
        AccumulateShardStats(&outcome.stats, result.stats);
        outcome.remote_entries += result.remote_entries;
        outcome.remote_duplicate_hits += result.remote_duplicate_hits;
        trace_events_.insert(trace_events_.end(), result.trace.begin(),
                             result.trace.end());
        for (service::JobResult& job : result.results) {
            record_result(std::move(job));
        }
        const service::TestCorpus::MergeStats merge =
            corpus_.MergeFrom(result.corpus);
        outcome.corpus_contributed += merge.inserted;
        outcome.corpus_duplicate += merge.duplicates;
        cross_shard_.merge_duplicates += merge.duplicates;
        rt.inflight.clear();
        rt.state = State::kIdle;
    };

    const auto handle_message = [&](size_t shard, Message&& message) {
        Runtime& rt = runtime[shard];
        rt.last_heard = Clock::now();
        rt.silent_intervals = 0;
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
          case MessageType::kGossip: {
            // Telemetry piggybacked on the delta keeps the cluster view
            // live mid-batch; it is coordinator-local and never
            // forwarded to sibling shards.
            if (message.telemetry) {
                absorb_telemetry(shard, std::move(*message.telemetry));
            }
            if (!options_.gossip) {
                break;
            }
            ++cross_shard_.gossip_messages;
            cross_shard_.fingerprints_gossiped +=
                message.gossip.entries.size();
            rt.retained.entries.insert(rt.retained.entries.end(),
                                       message.gossip.entries.begin(),
                                       message.gossip.entries.end());
            // Forward verbatim: receivers key remote state by
            // delta.source, so rebroadcast order cannot skew the merged
            // view. The producing shard never sees its own delta back.
            const std::string line_out = EncodeGossip(message.gossip);
            for (size_t other = 0; other < num_shards; ++other) {
                if (other == shard ||
                    runtime[other].state != State::kBusy) {
                    continue;
                }
                if (!runtime[other].transport->Send(line_out)) {
                    mark_dead(other, "send failed");
                }
            }
            break;
          }
          case MessageType::kHeartbeat:
            // Liveness (last_heard above) plus the streamed-results
            // channel: anything acknowledged here survives this shard's
            // later death without a rerun.
            rt.beat_seen = true;
            for (service::JobResult& job : message.heartbeat.results) {
                record_result(std::move(job));
            }
            if (options_.on_heartbeat) {
                options_.on_heartbeat(shard);
            }
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
    const int idle_sleep_ms = std::max(1, options_.poll_timeout_ms);
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
            ++fault_.respawns;
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
                Clock::now() + DurationFrom(options_.hello_timeout_seconds);
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
            if (heartbeats && rt.state == State::kBusy &&
                heartbeat_interval.count() > 0) {
                const auto silent = now - rt.last_heard;
                // One interval of silence is ordinary cadence jitter (a
                // beat in flight); only silence beyond that counts as
                // skipped beats.
                const uint64_t overdue =
                    static_cast<uint64_t>(silent / heartbeat_interval);
                const uint64_t missed_now = overdue > 1 ? overdue - 1 : 0;
                if (rt.beat_seen && missed_now > rt.silent_intervals) {
                    const uint64_t missed =
                        missed_now - rt.silent_intervals;
                    rt.silent_intervals = missed_now;
                    fault_.heartbeats_missed += missed;
                    heartbeats_missed->Add(missed);
                }
                if (silent >= heartbeat_timeout) {
                    mark_dead(
                        shard,
                        "heartbeat timeout after " +
                            std::to_string(
                                std::chrono::duration<double>(silent)
                                    .count()) +
                            "s");
                    progressed = true;
                    continue;
                }
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
                std::chrono::milliseconds(idle_sleep_ms));
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

    // Dead shards' retained gossip merges last: fingerprints only, so a
    // full entry reported by any survivor wins, and only discoveries
    // nobody re-ran land as placeholders. This is what keeps the merged
    // corpus key set equal to an undisturbed run's even when a shard
    // dies after finishing (but before reporting) some of its jobs.
    for (size_t shard = 0; shard < num_shards; ++shard) {
        Runtime& rt = runtime[shard];
        if (rt.state != State::kDead || rt.retained.entries.empty()) {
            continue;
        }
        const service::TestCorpus::MergeStats merge =
            corpus_.MergeFrom(rt.retained);
        shards_[shard].corpus_contributed += merge.inserted;
        shards_[shard].corpus_duplicate += merge.duplicates;
    }

    for (size_t shard = 0; shard < num_shards; ++shard) {
        if (runtime[shard].state != State::kDead) {
            runtime[shard].transport->Send(EncodeShutdown());
        }
    }

    // Merge per-shard totals into the batch view. Shards ran
    // concurrently: wall clock takes the max (the critical path), work
    // counters sum.
    for (const ShardOutcome& outcome : shards_) {
        const service::ServiceStats& s = outcome.stats;
        service::ServiceStats& m = merged_stats_;
        m.jobs_submitted += s.jobs_submitted;
        m.jobs_completed += s.jobs_completed;
        m.jobs_cancelled += s.jobs_cancelled;
        m.jobs_plateau_cancelled += s.jobs_plateau_cancelled;
        m.jobs_failed += s.jobs_failed;
        m.ll_paths += s.ll_paths;
        m.hl_paths += s.hl_paths;
        m.hangs += s.hangs;
        m.solver_queries += s.solver_queries;
        m.solver_sliced_queries += s.solver_sliced_queries;
        m.solver_incremental_sat_calls += s.solver_incremental_sat_calls;
        m.solver_clauses_loaded += s.solver_clauses_loaded;
        m.solver_seconds += s.solver_seconds;
        solver_seconds_max_shard_ =
            std::max(solver_seconds_max_shard_, s.solver_seconds);
        m.solver_cache_shared =
            m.solver_cache_shared || s.solver_cache_shared;
        m.shared_cache_hits += s.shared_cache_hits;
        m.shared_cache_misses += s.shared_cache_misses;
        m.shared_cache_inserts += s.shared_cache_inserts;
        m.shared_cache_evictions += s.shared_cache_evictions;
        m.shared_cache_model_hits += s.shared_cache_model_hits;
        m.shared_cache_bytes += s.shared_cache_bytes;
        m.shared_cache_entries += s.shared_cache_entries;
        m.engine_seconds += s.engine_seconds;
        m.wall_seconds = std::max(m.wall_seconds, s.wall_seconds);
        m.num_workers += s.num_workers;
        m.events_delivered += s.events_delivered;
        m.schedule_policy = s.schedule_policy;
        cross_shard_.remote_duplicate_hits += outcome.remote_duplicate_hits;
        cross_shard_.jobs_suppressed += s.jobs_plateau_cancelled;
    }

    // The coordinator's own counters join the cluster view (all zero in
    // a fault-free run — cheap, and the report schema stays uniform).
    coordinator_telemetry_ = metrics.Snapshot();
    cluster_telemetry_.MergeFrom(coordinator_telemetry_);
    {
        std::vector<obs::TraceEvent> own = tracer.TakeEvents();
        trace_events_.insert(trace_events_.end(), own.begin(), own.end());
    }

    merged_stats_.corpus_size = corpus_.size();
    wall_seconds_ = SecondsSince(start);
    merged_stats_.jobs_per_second =
        merged_stats_.wall_seconds > 0.0
            ? static_cast<double>(merged_stats_.jobs_completed) /
                  merged_stats_.wall_seconds
            : 0.0;
    return true;
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
    // heartbeat-streamed entries, and (below quorum) cancelled
    // placeholders. The "fault" section and per-shard death causes say
    // why.
    json.Key("degraded"), json.Value(degraded_);
    json.Key("coordinator_wall_seconds"), json.Value(wall_seconds_);
    // Two labeled views of solver time, because shards run concurrently:
    // the total is aggregate solver work across the cluster (it grows
    // with shard count), the max is the largest single shard's share —
    // the one comparable against a single service's solver_seconds.
    // merged.stats.solver_seconds equals the total.
    json.Key("solver_seconds_total"),
        json.Value(merged_stats_.solver_seconds);
    json.Key("solver_seconds_max_shard"),
        json.Value(solver_seconds_max_shard_);
    json.Key("fault");
    json.BeginObject();
    json.Key("deaths"), json.Value(fault_.deaths);
    json.Key("jobs_requeued"), json.Value(fault_.jobs_requeued);
    json.Key("heartbeats_missed"), json.Value(fault_.heartbeats_missed);
    json.Key("respawns"), json.Value(fault_.respawns);
    json.EndObject();
    json.Key("cross_shard");
    json.BeginObject();
    json.Key("gossip_messages"), json.Value(cross_shard_.gossip_messages);
    json.Key("fingerprints_gossiped"),
        json.Value(cross_shard_.fingerprints_gossiped);
    json.Key("remote_duplicate_hits"),
        json.Value(cross_shard_.remote_duplicate_hits);
    json.Key("jobs_suppressed"), json.Value(cross_shard_.jobs_suppressed);
    json.Key("merge_duplicates"),
        json.Value(cross_shard_.merge_duplicates);
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
        json.Key("remote_entries"), json.Value(shard.remote_entries);
        json.Key("remote_duplicate_hits"),
            json.Value(shard.remote_duplicate_hits);
        json.Key("corpus_contributed"),
            json.Value(shard.corpus_contributed);
        json.Key("corpus_duplicate"), json.Value(shard.corpus_duplicate);
        json.Key("stats");
        service::WriteServiceStats(json, shard.stats);
        json.EndObject();
    }
    json.EndArray();
    // Cluster telemetry: per-shard metrics snapshots (final, or the
    // latest gossiped one for a shard that never reported) plus their
    // merge. Schema per snapshot: obs::WriteMetricsSnapshot.
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
