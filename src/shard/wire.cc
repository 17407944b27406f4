#include "shard/wire.h"

#include <cstdint>
#include <utility>

#include "obs/timeseries.h"
#include "service/report.h"
#include "support/json.h"

namespace chef::shard {

namespace {

using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::TestCorpus;
using support::JsonValue;
using support::JsonWriter;

bool
DecodeFail(std::string* error, const std::string& reason)
{
    if (error != nullptr) {
        *error = reason;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Enum name round-trip. The canonical names come from JobStatusName;
// this is the reverse map.
// ---------------------------------------------------------------------------

bool
JobStatusFromName(const std::string& name, JobStatus* status)
{
    for (const JobStatus candidate :
         {JobStatus::kCompleted, JobStatus::kCancelled,
          JobStatus::kFailed}) {
        if (name == JobStatusName(candidate)) {
            *status = candidate;
            return true;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// Typed field readers: decoding fails loudly on missing or mistyped
// fields rather than defaulting, so a schema drift between coordinator
// and worker binaries surfaces as a protocol error, not skewed results.
// ---------------------------------------------------------------------------

bool
ReadU64(const JsonValue& object, const char* key, uint64_t* out,
        std::string* error)
{
    if (!object.GetUint64(key, out)) {
        return DecodeFail(error, std::string("missing or invalid '") +
                                     key + "'");
    }
    return true;
}

/// A u64 that must fit 32 bits: a larger value fails the frame rather
/// than wrapping to a small thread count.
bool
ReadU32(const JsonValue& object, const char* key, uint32_t* out,
        std::string* error)
{
    uint64_t value = 0;
    if (!ReadU64(object, key, &value, error)) {
        return false;
    }
    if (value > UINT32_MAX) {
        return DecodeFail(error, std::string("'") + key +
                                     "' exceeds 32 bits");
    }
    *out = static_cast<uint32_t>(value);
    return true;
}

bool
ReadSize(const JsonValue& object, const char* key, size_t* out,
         std::string* error)
{
    uint64_t value = 0;
    if (!ReadU64(object, key, &value, error)) {
        return false;
    }
    *out = static_cast<size_t>(value);
    return true;
}

bool
ReadDouble(const JsonValue& object, const char* key, double* out,
           std::string* error)
{
    if (!object.GetDouble(key, out)) {
        return DecodeFail(error, std::string("missing or invalid '") +
                                     key + "'");
    }
    return true;
}

bool
ReadBool(const JsonValue& object, const char* key, bool* out,
         std::string* error)
{
    if (!object.GetBool(key, out)) {
        return DecodeFail(error, std::string("missing or invalid '") +
                                     key + "'");
    }
    return true;
}

bool
ReadString(const JsonValue& object, const char* key, std::string* out,
           std::string* error)
{
    if (!object.GetString(key, out)) {
        return DecodeFail(error, std::string("missing or invalid '") +
                                     key + "'");
    }
    return true;
}

/// The member \p key of \p object when it has \p kind; nullptr (with
/// \p error) when it is missing or of another kind.
const JsonValue*
ReadMember(const JsonValue& object, const char* key, JsonValue::Kind kind,
           std::string* error)
{
    const JsonValue* member = object.Find(key);
    if (member == nullptr || member->kind != kind) {
        DecodeFail(error, std::string("missing or invalid '") + key + "'");
        return nullptr;
    }
    return member;
}

const JsonValue*
ReadObject(const JsonValue& object, const char* key, std::string* error)
{
    return ReadMember(object, key, JsonValue::Kind::kObject, error);
}

const JsonValue*
ReadArray(const JsonValue& object, const char* key, std::string* error)
{
    return ReadMember(object, key, JsonValue::Kind::kArray, error);
}

// ---------------------------------------------------------------------------
// JobSpec.
// ---------------------------------------------------------------------------

void
WriteJobSpec(JsonWriter& json, const JobSpec& spec)
{
    json.BeginObject();
    json.Key("workload"), json.Value(spec.workload);
    json.Key("label"), json.Value(spec.label);
    json.Key("seed"), json.HexValue(spec.seed);
    json.Key("exact_seed"), json.Value(spec.exact_seed);
    json.Key("max_runs"), json.Value(spec.options.max_runs);
    json.Key("max_seconds"), json.Value(spec.options.max_seconds);
    json.EndObject();
}

bool
DecodeJobSpec(const JsonValue& object, JobSpec* spec, std::string* error)
{
    return ReadString(object, "workload", &spec->workload, error) &&
           ReadString(object, "label", &spec->label, error) &&
           ReadU64(object, "seed", &spec->seed, error) &&
           ReadBool(object, "exact_seed", &spec->exact_seed, error) &&
           ReadU64(object, "max_runs", &spec->options.max_runs, error) &&
           ReadDouble(object, "max_seconds", &spec->options.max_seconds,
                      error);
}

// ---------------------------------------------------------------------------
// Yields and corpus deltas.
// ---------------------------------------------------------------------------

void
WriteYields(JsonWriter& json, const TestCorpus::YieldMap& yields)
{
    json.BeginArray();
    for (const auto& [workload, yield] : yields) {
        json.BeginObject();
        json.Key("workload"), json.Value(workload);
        json.Key("jobs_recorded"), json.Value(yield.jobs_recorded);
        json.Key("offered_total"), json.Value(yield.offered_total);
        json.Key("accepted_total"), json.Value(yield.accepted_total);
        json.Key("decayed_yield"), json.Value(yield.decayed_yield);
        json.Key("consecutive_zero_yield"),
            json.Value(yield.consecutive_zero_yield);
        json.EndObject();
    }
    json.EndArray();
}

bool
DecodeYields(const JsonValue& object, TestCorpus::YieldMap* yields,
             std::string* error)
{
    const JsonValue* array = ReadArray(object, "yields", error);
    if (array == nullptr) {
        return false;
    }
    for (const JsonValue& item : array->items) {
        std::string workload;
        TestCorpus::WorkloadYield yield;
        if (!ReadString(item, "workload", &workload, error) ||
            !ReadU64(item, "jobs_recorded", &yield.jobs_recorded, error) ||
            !ReadU64(item, "offered_total", &yield.offered_total, error) ||
            !ReadU64(item, "accepted_total", &yield.accepted_total,
                     error) ||
            !ReadDouble(item, "decayed_yield", &yield.decayed_yield,
                        error) ||
            !ReadU64(item, "consecutive_zero_yield",
                     &yield.consecutive_zero_yield, error)) {
            return false;
        }
        (*yields)[workload] = yield;
    }
    return true;
}

void
WriteCorpusEntryFull(JsonWriter& json, const TestCorpus::Entry& entry)
{
    json.BeginObject();
    json.Key("workload"), json.Value(entry.workload);
    json.Key("fingerprint"), json.HexValue(entry.fingerprint);
    json.Key("job_index"), json.Value(entry.job_index);
    json.Key("outcome_kind"), json.Value(entry.outcome_kind);
    json.Key("outcome_detail"), json.Value(entry.outcome_detail);
    json.Key("hl_length"), json.Value(entry.hl_length);
    json.Key("ll_steps"), json.Value(entry.ll_steps);
    json.Key("inputs");
    json.BeginArray();
    for (const auto& [var_id, value] : entry.inputs) {
        json.BeginArray();
        json.Value(static_cast<uint64_t>(var_id));
        json.HexValue(value);
        json.EndArray();
    }
    json.EndArray();
    json.EndObject();
}

bool
DecodeCorpusEntryFull(const JsonValue& object, TestCorpus::Entry* entry,
                      std::string* error)
{
    if (!ReadString(object, "workload", &entry->workload, error) ||
        !ReadU64(object, "fingerprint", &entry->fingerprint, error) ||
        !ReadSize(object, "job_index", &entry->job_index, error) ||
        !ReadString(object, "outcome_kind", &entry->outcome_kind, error) ||
        !ReadString(object, "outcome_detail", &entry->outcome_detail,
                    error) ||
        !ReadSize(object, "hl_length", &entry->hl_length, error) ||
        !ReadU64(object, "ll_steps", &entry->ll_steps, error)) {
        return false;
    }
    const JsonValue* inputs = ReadArray(object, "inputs", error);
    if (inputs == nullptr) {
        return false;
    }
    for (const JsonValue& pair : inputs->items) {
        if (pair.kind != JsonValue::Kind::kArray ||
            pair.items.size() != 2) {
            return DecodeFail(error, "malformed input pair");
        }
        uint64_t var_id = 0;
        uint64_t value = 0;
        if (!pair.items[0].AsUint64(&var_id) || var_id > UINT32_MAX ||
            !pair.items[1].AsUint64(&value)) {
            return DecodeFail(error, "malformed input pair");
        }
        entry->inputs.emplace_back(static_cast<uint32_t>(var_id), value);
    }
    return true;
}

void
WriteCorpusDelta(JsonWriter& json, const TestCorpus::Delta& delta)
{
    json.BeginObject();
    json.Key("source"), json.Value(delta.source);
    json.Key("sequence"), json.Value(delta.sequence);
    json.Key("entries");
    json.BeginArray();
    for (const TestCorpus::Entry& entry : delta.entries) {
        WriteCorpusEntryFull(json, entry);
    }
    json.EndArray();
    json.Key("yields");
    WriteYields(json, delta.yields);
    json.EndObject();
}

bool
DecodeCorpusDelta(const JsonValue& object, TestCorpus::Delta* delta,
                  std::string* error)
{
    if (!ReadString(object, "source", &delta->source, error) ||
        !ReadU64(object, "sequence", &delta->sequence, error)) {
        return false;
    }
    const JsonValue* entries = ReadArray(object, "entries", error);
    if (entries == nullptr) {
        return false;
    }
    for (const JsonValue& item : entries->items) {
        TestCorpus::Entry entry;
        if (!DecodeCorpusEntryFull(item, &entry, error)) {
            return false;
        }
        delta->entries.push_back(std::move(entry));
    }
    return DecodeYields(object, &delta->yields, error);
}

// ---------------------------------------------------------------------------
// JobResult (numeric mirror of service::WriteJobResult).
// ---------------------------------------------------------------------------

bool
DecodeJobResult(const JsonValue& object, JobResult* result,
                std::string* error)
{
    std::string status;
    if (!ReadSize(object, "job_index", &result->job_index, error) ||
        !ReadString(object, "workload", &result->workload, error) ||
        !ReadString(object, "label", &result->label, error) ||
        !ReadString(object, "status", &status, error) ||
        !ReadString(object, "stop_source", &result->stop_source, error) ||
        !ReadU64(object, "seed_used", &result->seed_used, error) ||
        !ReadSize(object, "test_cases", &result->num_test_cases, error) ||
        !ReadSize(object, "relevant_test_cases",
                  &result->num_relevant_test_cases, error) ||
        !ReadSize(object, "corpus_inserted", &result->corpus_inserted,
                  error) ||
        !ReadU64(object, "ll_paths", &result->engine_stats.ll_paths,
                 error) ||
        !ReadU64(object, "hl_paths", &result->engine_stats.hl_paths,
                 error) ||
        !ReadU64(object, "hangs", &result->engine_stats.hangs, error) ||
        !ReadU64(object, "solver_queries",
                 &result->engine_stats.solver_queries, error) ||
        !ReadU64(object, "solver_sliced_queries",
                 &result->engine_stats.solver_sliced_queries, error) ||
        !ReadU64(object, "solver_incremental_sat_calls",
                 &result->engine_stats.solver_incremental_sat_calls,
                 error) ||
        !ReadU64(object, "solver_clauses_loaded",
                 &result->engine_stats.solver_clauses_loaded, error) ||
        !ReadDouble(object, "solver_seconds",
                    &result->engine_stats.solver_seconds, error) ||
        !ReadBool(object, "stopped", &result->engine_stats.stopped,
                  error) ||
        !ReadDouble(object, "elapsed_seconds",
                    &result->engine_stats.elapsed_seconds, error)) {
        return false;
    }
    if (!JobStatusFromName(status, &result->status)) {
        return DecodeFail(error, "unknown job status '" + status + "'");
    }
    // WriteJobResult omits "error" when empty.
    const JsonValue* err = object.Find("error");
    if (err != nullptr && !err->AsString(&result->error)) {
        return DecodeFail(error, "invalid 'error'");
    }
    return true;
}

bool
DecodeJobResults(const JsonValue& object, std::vector<JobResult>* results,
                 std::string* error)
{
    const JsonValue* array = ReadArray(object, "results", error);
    if (array == nullptr) {
        return false;
    }
    for (const JsonValue& item : array->items) {
        JobResult job;
        if (!DecodeJobResult(item, &job, error)) {
            return false;
        }
        results->push_back(std::move(job));
    }
    return true;
}

// ---------------------------------------------------------------------------
// Telemetry bundle.
// ---------------------------------------------------------------------------

void
WriteTelemetry(JsonWriter& json, const Telemetry& telemetry)
{
    json.BeginObject();
    json.Key("metrics");
    obs::WriteMetricsSnapshot(json, telemetry.metrics);
    json.Key("series");
    obs::WriteSeriesSamples(json, telemetry.series);
    if (telemetry.attribution) {
        json.Key("attribution");
        obs::WriteAttributionSnapshot(json, *telemetry.attribution);
    }
    json.EndObject();
}

bool
DecodeTelemetry(const JsonValue& object, Telemetry* telemetry,
                std::string* error)
{
    const JsonValue* metrics = ReadObject(object, "metrics", error);
    if (metrics == nullptr ||
        !obs::DecodeMetricsSnapshot(*metrics, &telemetry->metrics, error)) {
        return false;
    }
    const JsonValue* series = ReadArray(object, "series", error);
    if (series == nullptr ||
        !obs::DecodeSeriesSamples(*series, &telemetry->series, error)) {
        return false;
    }
    // The attribution table rides only bundles sent at the metrics
    // cadence.
    const JsonValue* attribution = object.Find("attribution");
    return attribution == nullptr ||
           obs::DecodeAttributionSnapshot(
               *attribution, &telemetry->attribution.emplace(), error);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

const char*
MessageTypeName(MessageType type)
{
    switch (type) {
      case MessageType::kHello: return "hello";
      case MessageType::kRun: return "run";
      case MessageType::kGossip: return "gossip";
      case MessageType::kProgress: return "progress";
      case MessageType::kResult: return "result";
      case MessageType::kShutdown: return "shutdown";
      case MessageType::kError: return "error";
    }
    return "?";
}

service::ExplorationService::Options
ServiceConfig::ToServiceOptions() const
{
    service::ExplorationService::Options options;
    options.seed = seed;
    options.num_workers = num_workers;
    options.max_total_seconds = max_total_seconds;
    options.plateau = plateau;
    // Options::obs is deliberately left null: telemetry scopes never
    // cross the wire. The worker builds its own registry/tracer per run
    // (see ShardWorker::HandleRun) and wires them in there.
    return options;
}

std::string
EncodeHello()
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("hello");
    json.Key("protocol_version"), json.Value(kProtocolVersion);
    json.EndObject();
    return json.Take();
}

std::string
EncodeRun(const RunRequest& request)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("run");
    json.Key("shard_id"), json.Value(request.shard_id);
    json.Key("num_shards"), json.Value(request.num_shards);
    json.Key("service");
    json.BeginObject();
    json.Key("seed"), json.HexValue(request.service.seed);
    json.Key("num_workers"), json.Value(request.service.num_workers);
    json.Key("max_total_seconds"),
        json.Value(request.service.max_total_seconds);
    json.Key("tracing"), json.Value(request.service.tracing);
    json.Key("metrics_interval_seconds"),
        json.Value(request.service.metrics_interval_seconds);
    json.Key("plateau"), json.Value(request.service.plateau);
    json.EndObject();
    json.Key("jobs");
    json.BeginArray();
    for (const WireJob& job : request.jobs) {
        json.BeginObject();
        json.Key("job_index"), json.Value(job.job_index);
        json.Key("spec");
        WriteJobSpec(json, job.spec);
        json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    return json.Take();
}

std::string
EncodeGossip(const service::TestCorpus::Delta& delta)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("gossip");
    json.Key("source"), json.Value(delta.source);
    json.Key("sequence"), json.Value(delta.sequence);
    // Group fingerprints by workload: entries arrive sorted by
    // (workload, fingerprint), so one linear pass emits each group.
    json.Key("workloads");
    json.BeginArray();
    size_t i = 0;
    while (i < delta.entries.size()) {
        const std::string& workload = delta.entries[i].workload;
        json.BeginObject();
        json.Key("workload"), json.Value(workload);
        json.Key("fingerprints");
        json.BeginArray();
        while (i < delta.entries.size() &&
               delta.entries[i].workload == workload) {
            json.HexValue(delta.entries[i].fingerprint);
            ++i;
        }
        json.EndArray();
        json.EndObject();
    }
    json.EndArray();
    json.Key("yields");
    WriteYields(json, delta.yields);
    json.EndObject();
    return json.Take();
}

std::string
EncodeProgress(const ProgressMessage& progress)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("progress");
    json.Key("shard_id"), json.Value(progress.shard_id);
    json.Key("corpus");
    WriteCorpusDelta(json, progress.corpus);
    json.Key("results");
    json.BeginArray();
    for (const JobResult& job : progress.results) {
        service::WriteJobResult(json, job);
    }
    json.EndArray();
    if (progress.telemetry) {
        json.Key("telemetry");
        WriteTelemetry(json, *progress.telemetry);
    }
    json.EndObject();
    return json.Take();
}

std::string
EncodeResult(const ResultMessage& result)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("result");
    json.Key("shard_id"), json.Value(result.shard_id);
    json.Key("telemetry");
    WriteTelemetry(json, result.telemetry);
    json.Key("trace");
    obs::WriteTraceEvents(json, result.trace);
    json.EndObject();
    return json.Take();
}

std::string
EncodeShutdown()
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("shutdown");
    json.EndObject();
    return json.Take();
}

std::string
EncodeError(const std::string& reason)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("type"), json.Value("error");
    json.Key("message"), json.Value(reason);
    json.EndObject();
    return json.Take();
}

bool
DecodeMessage(const std::string& line, Message* message,
              std::string* error)
{
    JsonValue root;
    std::string parse_error;
    if (!ParseJson(line, &root, &parse_error)) {
        return DecodeFail(error, "malformed message: " + parse_error);
    }
    std::string type;
    if (!ReadString(root, "type", &type, error)) {
        return false;
    }

    if (type == "hello") {
        message->type = MessageType::kHello;
        uint32_t version = 0;
        if (!ReadU32(root, "protocol_version", &version, error)) {
            return false;
        }
        message->protocol_version = static_cast<int>(version);
        return true;
    }

    if (type == "run") {
        message->type = MessageType::kRun;
        RunRequest& run = message->run;
        const JsonValue* svc = ReadObject(root, "service", error);
        if (!ReadSize(root, "shard_id", &run.shard_id, error) ||
            !ReadSize(root, "num_shards", &run.num_shards, error) ||
            svc == nullptr ||
            !ReadU64(*svc, "seed", &run.service.seed, error) ||
            !ReadSize(*svc, "num_workers", &run.service.num_workers,
                      error) ||
            !ReadDouble(*svc, "max_total_seconds",
                        &run.service.max_total_seconds, error) ||
            !ReadBool(*svc, "tracing", &run.service.tracing, error) ||
            !ReadDouble(*svc, "metrics_interval_seconds",
                        &run.service.metrics_interval_seconds, error) ||
            !ReadBool(*svc, "plateau", &run.service.plateau, error)) {
            return false;
        }
        const JsonValue* jobs = ReadArray(root, "jobs", error);
        if (jobs == nullptr) {
            return false;
        }
        for (const JsonValue& item : jobs->items) {
            WireJob job;
            const JsonValue* spec = ReadObject(item, "spec", error);
            if (!ReadSize(item, "job_index", &job.job_index, error) ||
                spec == nullptr ||
                !DecodeJobSpec(*spec, &job.spec, error)) {
                return false;
            }
            run.jobs.push_back(std::move(job));
        }
        return true;
    }

    if (type == "gossip") {
        message->type = MessageType::kGossip;
        TestCorpus::Delta& delta = message->gossip;
        if (!ReadString(root, "source", &delta.source, error) ||
            !ReadU64(root, "sequence", &delta.sequence, error)) {
            return false;
        }
        const JsonValue* workloads = ReadArray(root, "workloads", error);
        if (workloads == nullptr) {
            return false;
        }
        for (const JsonValue& group : workloads->items) {
            std::string workload;
            if (!ReadString(group, "workload", &workload, error)) {
                return false;
            }
            const JsonValue* fingerprints =
                ReadArray(group, "fingerprints", error);
            if (fingerprints == nullptr) {
                return false;
            }
            for (const JsonValue& fp : fingerprints->items) {
                TestCorpus::Entry entry;
                entry.workload = workload;
                if (!fp.AsUint64(&entry.fingerprint)) {
                    return DecodeFail(error, "invalid fingerprint");
                }
                // Fingerprint-only placeholder: enough to dedup local
                // rediscovery; the discovering shard sent the full entry
                // to the coordinator on its progress frame.
                entry.outcome_kind = "remote";
                delta.entries.push_back(std::move(entry));
            }
        }
        return DecodeYields(root, &delta.yields, error);
    }

    if (type == "progress") {
        message->type = MessageType::kProgress;
        ProgressMessage& progress = message->progress;
        const JsonValue* corpus = ReadObject(root, "corpus", error);
        if (!ReadSize(root, "shard_id", &progress.shard_id, error) ||
            corpus == nullptr ||
            !DecodeCorpusDelta(*corpus, &progress.corpus, error) ||
            !DecodeJobResults(root, &progress.results, error)) {
            return false;
        }
        const JsonValue* telemetry = root.Find("telemetry");
        return telemetry == nullptr ||
               DecodeTelemetry(*telemetry, &progress.telemetry.emplace(),
                               error);
    }

    if (type == "result") {
        message->type = MessageType::kResult;
        ResultMessage& result = message->result;
        const JsonValue* telemetry = ReadObject(root, "telemetry", error);
        const JsonValue* trace = ReadArray(root, "trace", error);
        return ReadSize(root, "shard_id", &result.shard_id, error) &&
               telemetry != nullptr &&
               DecodeTelemetry(*telemetry, &result.telemetry, error) &&
               trace != nullptr &&
               obs::DecodeTraceEvents(*trace, &result.trace, error);
    }

    if (type == "shutdown") {
        message->type = MessageType::kShutdown;
        return true;
    }

    if (type == "error") {
        message->type = MessageType::kError;
        return ReadString(root, "message", &message->error, error);
    }

    return DecodeFail(error, "unknown message type '" + type + "'");
}

}  // namespace chef::shard
