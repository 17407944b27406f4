#ifndef CHEF_SHARD_WIRE_H_
#define CHEF_SHARD_WIRE_H_

/// \file
/// JSON wire format for the coordinator/worker shard protocol.
///
/// Every message is one line of strict RFC-8259 JSON (newline-delimited
/// framing; see shard/transport.h), built and parsed with support/json.h
/// so the wire obeys the same grammar the report contract promises. What
/// crosses the wire is the paper's "compact canonical artifacts" idea
/// applied to distribution: job descriptions, corpus fingerprint deltas,
/// and per-workload yield snapshots — never engine state or expression
/// DAGs.
///
/// There is one protocol version (kProtocolVersion). Every field of
/// every frame is written every time and decoded as required, so schema
/// drift fails the frame loudly instead of decoding to a default. Only
/// two keys are optional: the telemetry bundle on a gossip frame (sent
/// at the metrics cadence) and a job result's "error" (omitted when
/// empty by the service report schema). Unknown keys are skipped. Every
/// peer is the same build: loopback shards run in-process, and pipe
/// workers are spawned from the coordinator's own binary, so there are
/// no older peers whose fields need defaults.
///
/// Only the declarative subset of a JobSpec is serializable: callbacks
/// (Engine stop_requested hooks) and shared pointers (a pre-wired
/// solver_options.shared_cache) cannot cross a process boundary, and
/// CheckSerializable rejects them with a clear error at submit time
/// rather than silently dropping behavior. 64-bit identities (seeds,
/// fingerprints) travel as "0x..." hex strings; non-finite doubles
/// serialize as null and decode as 0.0 (support/json.h).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/attribution.h"
#include "obs/obs.h"
#include "obs/timeseries.h"
#include "service/corpus.h"
#include "service/job.h"
#include "service/service.h"

namespace chef::shard {

/// The coordinator refuses a worker whose hello announces any other
/// version instead of mis-decoding mid-batch.
constexpr int kProtocolVersion = 3;

enum class MessageType {
    kHello,      ///< worker -> coordinator: ready, protocol version.
    kRun,        ///< coordinator -> worker: run this batch partition.
    kGossip,     ///< both directions: corpus fingerprint delta + yields.
    kHeartbeat,  ///< worker -> coordinator: liveness + streamed results.
    kResult,     ///< worker -> coordinator: results, stats, local corpus.
    kShutdown,   ///< coordinator -> worker: exit cleanly.
    kError,      ///< either: fatal protocol/setup failure, with reason.
};

const char* MessageTypeName(MessageType type);

/// One job with its *global* batch index. The worker runs jobs in local
/// order but reports results under global indices, and the coordinator
/// pre-derives each job's exact seed from the global index — so the
/// partition cannot change any per-job result (see JobSpec::exact_seed).
struct WireJob {
    size_t job_index = 0;
    service::JobSpec spec;
};

/// The serializable subset of ExplorationService::Options. Streaming
/// sinks (on_job_event, event_queue) are coordinator-side concerns and
/// never cross the wire.
struct ServiceConfig {
    uint64_t seed = 1;
    size_t num_workers = 1;
    double max_total_seconds = 0.0;
    bool record_corpus_inputs = true;
    bool share_solver_cache = false;
    service::SchedulePolicy schedule_policy =
        service::SchedulePolicy::kYieldPriority;
    service::PlateauPolicy plateau_policy;
    /// Workers run their batch with phase tracing on and ship the spans
    /// back in the result message (obs contexts themselves never cross
    /// the wire — each worker builds its own registry/tracer).
    bool tracing = false;
    /// Cadence for telemetry snapshots piggybacked on gossip (and for
    /// local kMetrics events); 0 means final-result telemetry only.
    double metrics_interval_seconds = 0.0;
    /// Default intra-session exploration threads per job on the worker
    /// (clamped there against its core budget); 1 keeps sessions
    /// single-threaded.
    uint32_t engine_threads = 1;

    service::ExplorationService::Options ToServiceOptions() const;
    static ServiceConfig FromServiceOptions(
        const service::ExplorationService::Options& options);
};

/// coordinator -> worker: the shard's partition of the batch.
struct RunRequest {
    size_t shard_id = 0;
    size_t num_shards = 1;
    /// Cadence for worker heartbeats while the batch runs; 0 disables
    /// them. The coordinator fills it from its
    /// Options::heartbeat_interval_seconds. Heartbeats double as the
    /// streamed-result channel: each one carries the jobs completed
    /// since the previous beat, so the coordinator can requeue only the
    /// genuinely unfinished remainder when the shard later dies.
    double heartbeat_interval_seconds = 0.0;
    ServiceConfig service;
    std::vector<WireJob> jobs;
};

/// worker -> coordinator while a batch runs (only when the run request
/// set heartbeat_interval_seconds > 0). Liveness signal plus
/// the completed results since the previous beat, already remapped to
/// global job indices. The worker's pump sends the covering corpus
/// gossip delta *before* the heartbeat on the same ordered transport,
/// so any job a received heartbeat lists has its discoveries'
/// fingerprints already at the coordinator — the invariant that keeps
/// the corpus complete when the shard dies after the beat.
struct HeartbeatMessage {
    size_t shard_id = 0;
    /// Monotonic per-run beat counter (diagnostic only).
    uint64_t sequence = 0;
    std::vector<service::JobResult> results;
};

/// A shard's telemetry, one value on the wire. `metrics` and
/// `attribution` are cumulative over the shard's current run, so the
/// receiver keeps the latest; `series` holds only the samples not sent
/// before, and the receiver deduplicates them by index.
struct Telemetry {
    obs::MetricsSnapshot metrics;
    std::vector<obs::SeriesSample> series;
    obs::AttributionSnapshot attribution;
};

/// worker -> coordinator at batch end. `corpus` carries the shard's
/// *local-origin* entries in full (inputs included) plus its local yield
/// view; gossip-seeded remote entries are excluded — the discovering
/// shard reports those, so the union over shards has no echoes.
struct ResultMessage {
    size_t shard_id = 0;
    service::ServiceStats stats;
    std::vector<service::JobResult> results;
    service::TestCorpus::Delta corpus;
    /// Cross-shard dedup telemetry (see TestCorpus): gossip entries
    /// merged in, and local discoveries suppressed by them.
    size_t remote_entries = 0;
    size_t remote_duplicate_hits = 0;
    /// The run's final telemetry: its metrics and attribution totals and
    /// the series samples gossip never shipped.
    Telemetry telemetry;
    /// Completed trace spans, pid-stamped shard_id + 1 (empty unless the
    /// run request asked for tracing).
    std::vector<obs::TraceEvent> trace;
};

/// One decoded message. Tagged union as plain struct: only the payload
/// matching `type` is meaningful.
struct Message {
    MessageType type = MessageType::kError;
    int protocol_version = 0;                 ///< kHello.
    RunRequest run;                           ///< kRun.
    service::TestCorpus::Delta gossip;        ///< kGossip.
    /// kGossip: live telemetry piggybacked on the delta (worker ->
    /// coordinator only, at the configured metrics cadence).
    std::optional<Telemetry> telemetry;
    HeartbeatMessage heartbeat;               ///< kHeartbeat.
    ResultMessage result;                     ///< kResult.
    std::string error;                        ///< kError.
};

/// True iff the spec can cross a process boundary. On failure fills
/// \p why with which field is non-serializable and what to use instead.
bool CheckSerializable(const service::JobSpec& spec, std::string* why);

std::string EncodeHello();
std::string EncodeRun(const RunRequest& request);
/// Gossip is the compact form of a delta: per-workload fingerprint
/// lists and the yield snapshot — no outcomes or inputs. A worker
/// piggybacks its \p telemetry (non-null) at the metrics cadence so the
/// coordinator's cluster view stays current mid-batch.
std::string EncodeGossip(const service::TestCorpus::Delta& delta,
                         const Telemetry* telemetry = nullptr);
std::string EncodeHeartbeat(const HeartbeatMessage& heartbeat);
std::string EncodeResult(const ResultMessage& result);
std::string EncodeShutdown();
std::string EncodeError(const std::string& reason);

/// Decodes any message type. Returns false (with \p error) on malformed
/// JSON, unknown type, or missing/mistyped fields.
bool DecodeMessage(const std::string& line, Message* message,
                   std::string* error);

}  // namespace chef::shard

#endif  // CHEF_SHARD_WIRE_H_
