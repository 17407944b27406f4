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
    // the progress stream.
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

    // Every completed job's full result is captured off the service's
    // event dispatcher and shipped on the next progress frame, so the
    // coordinator holds it (and its discoveries) before the batch ends
    // and requeues only the genuinely unfinished remainder if this
    // process dies later.
    std::mutex completed_mutex;
    std::vector<std::shared_ptr<const service::JobResult>> completed;
    service_options.on_job_event = [&](const service::JobEvent& event) {
        if (event.kind == service::JobEvent::Kind::kJobCompleted &&
            event.result != nullptr) {
            std::lock_guard<std::mutex> lock(completed_mutex);
            completed.push_back(event.result);
        }
    };

    service::ExplorationService service(service_options);
    std::vector<service::JobSpec> jobs;
    std::vector<size_t> global_indices;
    jobs.reserve(request.jobs.size());
    global_indices.reserve(request.jobs.size());
    for (const WireJob& job : request.jobs) {
        jobs.push_back(job.spec);
        global_indices.push_back(job.job_index);
    }
    // Local queue position -> the coordinator's global index.
    const auto global_index = [&](size_t local) {
        return local < global_indices.size() ? global_indices[local] : local;
    };

    // The batch runs on its own thread; this thread stays on the
    // transport, merging incoming gossip into the live corpus and
    // streaming progress out. Every job emits its completion event
    // before RunBatch returns, so its return value is not needed here.
    std::atomic<bool> done{false};
    std::thread batch([&] {
        service.RunBatch(jobs);
        done.store(true, std::memory_order_release);
    });

    uint64_t sent_sequence = 0;
    uint64_t shipped_series_index = 0;
    auto last_progress = Clock::now() - std::chrono::hours(1);
    auto last_telemetry = Clock::now();
    const auto progress_interval =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(options_.gossip_interval_seconds));
    // The full telemetry bundle rides progress at its own (coarser)
    // cadence; 0 disables mid-batch bundles (the result carries the
    // final one).
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

    const auto pump_progress = [&](bool flush) {
        if (peer_gone ||
            (!flush && Clock::now() - last_progress < progress_interval)) {
            return;
        }
        last_progress = Clock::now();
        // Sent every interval even when nothing is new: the yield
        // snapshot moves on zero-yield completions (the plateau streak),
        // and that signal is exactly what lets sibling shards cancel
        // duplicate jobs without rediscovering the plateau themselves.
        ProgressMessage progress;
        progress.shard_id = request.shard_id;
        // Drain first, cut the delta second: a drained result's corpus
        // inserts happened before its completion event fired, so the
        // delta below covers them and one frame carries a job's result
        // together with everything it discovered.
        {
            std::lock_guard<std::mutex> lock(completed_mutex);
            progress.results.reserve(completed.size());
            for (const auto& result : completed) {
                progress.results.push_back(*result);
            }
            completed.clear();
        }
        for (service::JobResult& result : progress.results) {
            result.job_index = global_index(result.job_index);
        }
        progress.corpus = service.corpus().Snapshot(source, sent_sequence);
        sent_sequence = progress.corpus.sequence;
        for (service::TestCorpus::Entry& entry : progress.corpus.entries) {
            // Corpus entries carry their discovering job too; remap so the
            // merged report's attribution points at the global jobs array.
            entry.job_index = global_index(entry.job_index);
        }
        const bool full_telemetry =
            live_telemetry &&
            Clock::now() - last_telemetry >= telemetry_interval;
        if (full_telemetry || !progress.results.empty()) {
            // Taken after the drain, so the counts cover every result
            // this frame carries.
            Telemetry& telemetry = progress.telemetry.emplace();
            telemetry.metrics = metrics.Snapshot();
            if (full_telemetry) {
                last_telemetry = Clock::now();
                // Attribution is cumulative, so the coordinator keeps the
                // latest; series carry every sample recorded since the
                // last bundle.
                telemetry.series =
                    recorder.SamplesSince(shipped_series_index);
                if (!telemetry.series.empty()) {
                    shipped_series_index = telemetry.series.back().index;
                }
                telemetry.attribution = service.attribution();
            }
        }
        if (!transport_->Send(EncodeProgress(progress))) {
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
        pump_progress(/*flush=*/false);
    }
    batch.join();

    // The last progress frame flushes the remaining results and
    // entries; the result frame after it closes the run.
    pump_progress(/*flush=*/true);
    if (peer_gone) {
        return false;
    }

    ResultMessage result;
    result.shard_id = request.shard_id;
    result.telemetry.metrics = metrics.Snapshot();
    result.telemetry.attribution = service.attribution();
    // Samples no progress frame shipped — including the final one
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
          case MessageType::kProgress:
          case MessageType::kResult:
            // Not meaningful coordinator->worker; ignore.
            break;
        }
    }
}

}  // namespace chef::shard
