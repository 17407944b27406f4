#ifndef CHEF_SHARD_WIRE_H_
#define CHEF_SHARD_WIRE_H_

/// \file
/// JSON wire format for the coordinator/worker shard protocol.
///
/// Every message is one line of strict RFC-8259 JSON (newline-delimited
/// framing; see shard/transport.h), built and parsed with support/json.h
/// so the wire obeys the same grammar the report contract promises. What
/// crosses the wire is the paper's "compact canonical artifacts" idea
/// applied to distribution: job descriptions, corpus deltas, and
/// per-workload yield snapshots — never engine state or expression DAGs.
///
/// There is one protocol version (kProtocolVersion). Every field of
/// every frame is written every time and decoded as required, so schema
/// drift fails the frame loudly instead of decoding to a default. Only
/// three keys are optional: a progress frame's telemetry bundle, that
/// bundle's attribution table (both sent at the metrics cadence; see
/// ProgressMessage), and a job result's "error" (omitted when empty by
/// the service report schema). Unknown keys are skipped. Every peer is
/// the same build: loopback shards run in-process, and pipe workers are
/// spawned from the coordinator's own binary, so there are no older
/// peers whose fields need defaults.
///
/// Each kind of data has one upstream path. Job results and corpus
/// entries go on `progress`, once each; the final telemetry and the
/// trace go on `result`. `gossip` flows only downstream: the
/// coordinator's compact form of another shard's progress.
///
/// A JobSpec is plain data (workload, label, seed, exact seed, run and
/// time budget) and crosses the wire whole. 64-bit identities (seeds,
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
constexpr int kProtocolVersion = 9;

enum class MessageType {
    kHello,      ///< worker -> coordinator: ready, protocol version.
    kRun,        ///< coordinator -> worker: run this batch partition.
    kGossip,     ///< coordinator -> worker: fingerprint delta + yields.
    kProgress,   ///< worker -> coordinator: results, entries, yields.
    kResult,     ///< worker -> coordinator: final telemetry and trace.
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

/// The part of ExplorationService::Options a shard's service takes from
/// the coordinator; the rest keeps its defaults (yield-priority
/// dispatch, attribution on). The streaming sink (on_job_event) is a
/// callback and never crosses the wire; the shard worker installs its
/// own.
struct ServiceConfig {
    uint64_t seed = 1;
    size_t num_workers = 1;
    double max_total_seconds = 0.0;
    /// The plateau rule (service/job.h), on or off.
    bool plateau = false;
    /// Workers run their batch with phase tracing on and ship the spans
    /// back in the result message (obs contexts themselves never cross
    /// the wire — each worker builds its own registry/tracer).
    bool tracing = false;
    /// The worker's cadence for time-series samples and for the full
    /// telemetry bundle on progress frames; 0 means final-result
    /// telemetry only (plus the metrics on result-bearing progress).
    double metrics_interval_seconds = 0.0;

    service::ExplorationService::Options ToServiceOptions() const;
};

/// coordinator -> worker: the shard's partition of the batch.
struct RunRequest {
    size_t shard_id = 0;
    size_t num_shards = 1;
    ServiceConfig service;
    std::vector<WireJob> jobs;
};

/// A shard's telemetry, one value on the wire. `metrics` and
/// `attribution` are cumulative over the shard's current run, so the
/// receiver keeps the latest; `series` holds only the samples not sent
/// before, and the receiver deduplicates them by index. `attribution`
/// is absent from a bundle sent between metrics ticks (the receiver
/// keeps the table it has).
struct Telemetry {
    obs::MetricsSnapshot metrics;
    std::vector<obs::SeriesSample> series;
    std::optional<obs::AttributionSnapshot> attribution;
};

/// worker -> coordinator every gossip interval while a batch runs, and
/// once more, flushing, before the result. Each job result and each
/// local-origin corpus entry rides exactly one progress frame. The
/// worker drains completed results before it cuts the corpus delta, and
/// a job's corpus inserts happen before its completion, so a frame
/// carries every entry its own results discovered.
struct ProgressMessage {
    size_t shard_id = 0;
    /// Local-origin entries new since the last frame, in full (inputs
    /// included, job_index global), plus the cumulative local yield
    /// view. Gossip-seeded remote entries are excluded — the discovering
    /// shard reports those, so the union over shards has no echoes.
    service::TestCorpus::Delta corpus;
    /// Jobs completed since the last frame, under global indices.
    std::vector<service::JobResult> results;
    /// The full bundle at the metrics cadence; only the metrics on any
    /// other frame that carries results, so the counts behind a streamed
    /// result reach the coordinator with it; absent otherwise.
    std::optional<Telemetry> telemetry;
};

/// worker -> coordinator at batch end, after the flushing progress
/// frame. The shard's batch totals travel only as counters in
/// `telemetry.metrics`; the coordinator derives its ServiceStats from
/// them (service::StatsFromMetrics).
struct ResultMessage {
    size_t shard_id = 0;
    /// The run's final telemetry: its metrics and attribution totals and
    /// the series samples no progress frame shipped.
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
    ProgressMessage progress;                 ///< kProgress.
    ResultMessage result;                     ///< kResult.
    std::string error;                        ///< kError.
};

std::string EncodeHello();
std::string EncodeRun(const RunRequest& request);
/// Gossip is the compact form of a delta: per-workload fingerprint
/// lists and the yield snapshot — no outcomes or inputs.
std::string EncodeGossip(const service::TestCorpus::Delta& delta);
std::string EncodeProgress(const ProgressMessage& progress);
std::string EncodeResult(const ResultMessage& result);
std::string EncodeShutdown();
std::string EncodeError(const std::string& reason);

/// Decodes any message type. Returns false (with \p error) on malformed
/// JSON, unknown type, or missing/mistyped fields.
bool DecodeMessage(const std::string& line, Message* message,
                   std::string* error);

}  // namespace chef::shard

#endif  // CHEF_SHARD_WIRE_H_
