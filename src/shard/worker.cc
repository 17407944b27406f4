#include "shard/worker.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace chef::shard {

namespace {

using Clock = std::chrono::steady_clock;

std::string
ShardName(size_t shard_id)
{
    return "shard" + std::to_string(shard_id);
}

}  // namespace

ShardWorker::ShardWorker(Options options, Transport* transport)
    : options_(options), transport_(transport)
{
}

bool
ShardWorker::HandleRun(const RunRequest& request)
{
    const std::string source = ShardName(request.shard_id);

    // Per-run telemetry scope. The registry is always on (snapshot cost
    // is paid only when rendered); the tracer exists only when the
    // coordinator asked for tracing. pid = shard_id + 1 keeps shard 0
    // distinct from the coordinator process (pid 0) in merged traces.
    obs::MetricsRegistry metrics;
    obs::PhaseTracer tracer;
    tracer.set_pid(static_cast<uint32_t>(request.shard_id) + 1);
    tracer.set_enabled(request.service.tracing);
    service::ExplorationService::Options service_options =
        request.service.ToServiceOptions();
    service_options.obs.metrics = &metrics;
    service_options.obs.tracer = request.service.tracing ? &tracer : nullptr;
    // Time-series recorder, sampled by the service's ticker thread at
    // the telemetry cadence; this thread drains it incrementally onto
    // the gossip stream.
    const bool live_telemetry =
        request.service.metrics_interval_seconds > 0.0;
    obs::TimeSeriesRecorder::Options recorder_options;
    if (live_telemetry) {
        recorder_options.interval_seconds =
            request.service.metrics_interval_seconds;
    }
    obs::TimeSeriesRecorder recorder(recorder_options);
    if (live_telemetry) {
        service_options.obs.timeseries = &recorder;
    }

    // Heartbeats double as the streamed-result channel: every
    // completed job's full result is captured off the service's event
    // dispatcher and shipped on the next beat, so the coordinator can
    // requeue only the genuinely unfinished remainder if this process
    // dies later. Gated on the coordinator asking — streaming costs a
    // dispatcher thread the plain path doesn't need.
    const bool heartbeats = request.heartbeat_interval_seconds > 0.0;
    std::mutex completed_mutex;
    std::vector<std::shared_ptr<const service::JobResult>> completed;
    if (heartbeats) {
        service_options.on_job_event =
            [&](const service::JobEvent& event) {
                if (event.kind ==
                        service::JobEvent::Kind::kJobCompleted &&
                    event.result != nullptr) {
                    std::lock_guard<std::mutex> lock(completed_mutex);
                    completed.push_back(event.result);
                }
            };
    }

    service::ExplorationService service(service_options);
    std::vector<service::JobSpec> jobs;
    std::vector<size_t> global_indices;
    jobs.reserve(request.jobs.size());
    global_indices.reserve(request.jobs.size());
    for (const WireJob& job : request.jobs) {
        jobs.push_back(job.spec);
        global_indices.push_back(job.job_index);
    }

    // The batch runs on its own thread; this thread stays on the
    // transport, merging incoming gossip into the live corpus and
    // streaming fresh local discoveries out.
    std::vector<service::JobResult> results;
    std::atomic<bool> done{false};
    std::thread batch([&] {
        results = service.RunBatch(jobs);
        done.store(true, std::memory_order_release);
    });

    uint64_t gossiped_sequence = 0;
    uint64_t shipped_series_index = 0;
    auto last_gossip = Clock::now() - std::chrono::hours(1);
    auto last_telemetry = Clock::now();
    const auto gossip_interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options_.gossip_interval_seconds));
    // Telemetry rides the gossip stream at its own (coarser) cadence;
    // 0 disables mid-batch snapshots (the result carries the final one).
    const auto telemetry_interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                request.service.metrics_interval_seconds));
    bool peer_gone = false;

    // The coordinator is gone: nobody will collect results, so cancel
    // the in-flight batch instead of finishing doomed work (the worker
    // lambdas observe the stop source between runs).
    const auto on_peer_gone = [&] {
        peer_gone = true;
        service.RequestStop();
    };

    const auto pump_gossip_out = [&](bool force) {
        if (peer_gone ||
            (!force && Clock::now() - last_gossip < gossip_interval)) {
            return;
        }
        // Sent every interval even when no new entries exist: the yield
        // snapshot moves on zero-yield completions (the plateau streak),
        // and that signal is exactly what lets sibling shards cancel
        // duplicate jobs without rediscovering the plateau themselves.
        const service::TestCorpus::Delta delta =
            service.corpus().Snapshot(source, gossiped_sequence);
        last_gossip = Clock::now();
        gossiped_sequence = delta.sequence;
        Telemetry telemetry;
        const bool with_telemetry =
            live_telemetry &&
            Clock::now() - last_telemetry >= telemetry_interval;
        if (with_telemetry) {
            last_telemetry = Clock::now();
            // Metrics and attribution are cumulative, so the coordinator
            // keeps the latest; series carry every sample recorded since
            // the last telemetry gossip, and the coordinator dedups them
            // by index, so a resend after a dropped send is harmless.
            telemetry.metrics = metrics.Snapshot();
            telemetry.series = recorder.SamplesSince(shipped_series_index);
            if (!telemetry.series.empty()) {
                shipped_series_index = telemetry.series.back().index;
            }
            telemetry.attribution = service.attribution();
        }
        if (!transport_->Send(EncodeGossip(
                delta, with_telemetry ? &telemetry : nullptr))) {
            on_peer_gone();
        }
    };

    auto last_heartbeat = Clock::now();
    uint64_t heartbeat_sequence = 0;
    const auto heartbeat_interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(
                request.heartbeat_interval_seconds));
    const auto pump_heartbeat = [&] {
        if (!heartbeats || peer_gone ||
            Clock::now() - last_heartbeat < heartbeat_interval) {
            return;
        }
        // Drain first, gossip second: a drained result's corpus inserts
        // happened before its completion event fired, so the delta cut
        // below covers them, and the transport is ordered — by the time
        // the coordinator reads this beat's results, it already holds
        // every fingerprint they discovered. That ordering is what lets
        // the coordinator skip requeueing heartbeat-acknowledged jobs
        // without losing corpus entries when this shard dies.
        HeartbeatMessage beat;
        beat.shard_id = request.shard_id;
        beat.sequence = ++heartbeat_sequence;
        {
            std::lock_guard<std::mutex> lock(completed_mutex);
            beat.results.reserve(completed.size());
            for (const auto& result : completed) {
                beat.results.push_back(*result);
            }
            completed.clear();
        }
        for (service::JobResult& result : beat.results) {
            // Local queue position -> the coordinator's global index,
            // same remap the final result message applies.
            if (result.job_index < global_indices.size()) {
                result.job_index = global_indices[result.job_index];
            }
        }
        if (!beat.results.empty()) {
            pump_gossip_out(/*force=*/true);
        }
        last_heartbeat = Clock::now();
        if (!peer_gone &&
            !transport_->Send(EncodeHeartbeat(beat))) {
            on_peer_gone();
        }
    };

    while (!done.load(std::memory_order_acquire)) {
        std::string line;
        const Transport::RecvStatus status =
            peer_gone ? Transport::RecvStatus::kTimeout
                      : transport_->Receive(&line, /*timeout_ms=*/10);
        if (status == Transport::RecvStatus::kClosed) {
            on_peer_gone();
        } else if (status == Transport::RecvStatus::kMessage) {
            Message message;
            std::string decode_error;
            if (!DecodeMessage(line, &message, &decode_error)) {
                transport_->Send(EncodeError(decode_error));
            } else if (message.type == MessageType::kGossip) {
                service.mutable_corpus()->MergeFrom(message.gossip);
                // Remote yield can re-rank pending jobs and trip the
                // plateau without any local completion.
                service.NotifyYieldsChanged();
            } else if (message.type == MessageType::kShutdown) {
                // Abort the batch; the final (partial) results still go
                // out below so the coordinator can account for them.
                service.RequestStop();
            }
        } else if (peer_gone) {
            // Nothing to multiplex anymore; just wait for the (now
            // cancelling) batch to unwind.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        pump_gossip_out(/*force=*/false);
        pump_heartbeat();
    }
    batch.join();

    if (peer_gone) {
        return false;
    }

    // Final delta (discoveries since the last pump), then the result.
    const service::TestCorpus::Delta tail =
        service.corpus().Snapshot(source, gossiped_sequence);
    if (!tail.entries.empty()) {
        transport_->Send(EncodeGossip(tail));
    }

    ResultMessage result;
    result.shard_id = request.shard_id;
    result.stats = service.stats();
    result.results = std::move(results);
    for (size_t i = 0; i < result.results.size(); ++i) {
        // Local queue positions -> the coordinator's global indices.
        result.results[i].job_index = global_indices[i];
    }
    result.corpus = service.corpus().Snapshot(source, 0);
    for (service::TestCorpus::Entry& entry : result.corpus.entries) {
        // Corpus entries carry their discovering job too; remap so the
        // merged report's attribution points at the global jobs array.
        if (entry.job_index < global_indices.size()) {
            entry.job_index = global_indices[entry.job_index];
        }
    }
    result.remote_entries = service.corpus().remote_entries();
    result.remote_duplicate_hits =
        service.corpus().remote_duplicate_hits();
    result.telemetry.metrics = metrics.Snapshot();
    result.telemetry.attribution = service.attribution();
    // Samples the gossip stream never shipped — including the final one
    // RunBatch records after all accounting, so the cluster series ends
    // exactly at the reported totals.
    if (live_telemetry) {
        result.telemetry.series = recorder.SamplesSince(shipped_series_index);
    }
    if (request.service.tracing) {
        result.trace = tracer.TakeEvents();
    }
    return transport_->Send(EncodeResult(result));
}

bool
ShardWorker::Serve()
{
    if (!transport_->Send(EncodeHello())) {
        return false;
    }
    for (;;) {
        std::string line;
        const Transport::RecvStatus status =
            transport_->Receive(&line, /*timeout_ms=*/-1);
        if (status == Transport::RecvStatus::kClosed) {
            return false;
        }
        if (status != Transport::RecvStatus::kMessage) {
            continue;
        }
        Message message;
        std::string decode_error;
        if (!DecodeMessage(line, &message, &decode_error)) {
            transport_->Send(EncodeError(decode_error));
            continue;
        }
        switch (message.type) {
          case MessageType::kRun:
            if (!HandleRun(message.run)) {
                // Coordinator vanished mid-run; exit nonzero promptly
                // rather than blocking on a transport nobody serves.
                return false;
            }
            break;
          case MessageType::kShutdown:
            return true;
          case MessageType::kGossip:
            // Gossip outside a run races a batch that already finished;
            // it is acceleration only, so dropping it is harmless.
            break;
          case MessageType::kError:
          case MessageType::kHello:
          case MessageType::kHeartbeat:
          case MessageType::kResult:
            // Not meaningful coordinator->worker; ignore.
            break;
        }
    }
}

}  // namespace chef::shard
