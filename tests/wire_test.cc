/// \file
/// Tests for support/json.h (DOM parser + strict validation) and the
/// shard wire format: round-trip property tests over JobSpecs, gossip,
/// progress frames (full corpus entries, yields, job results, optional
/// telemetry), the reduced result frame; NaN/Inf-to-null doubles; run
/// frames missing any one job-spec or service key, and the removed
/// heartbeat frame.

#include "shard/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/rng.h"

namespace chef::shard {
namespace {

using service::JobResult;
using service::JobSpec;
using service::JobStatus;
using service::ServiceStats;
using service::TestCorpus;
using support::JsonValid;
using support::JsonValue;
using support::ParseJson;

// ---------------------------------------------------------------------------
// support/json.h basics.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsAndStructure)
{
    JsonValue value;
    ASSERT_TRUE(ParseJson("{\"a\":[1,2.5,\"x\",true,null]}", &value));
    const JsonValue* a = value.Find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->items.size(), 5u);
    uint64_t u = 0;
    EXPECT_TRUE(a->items[0].AsUint64(&u));
    EXPECT_EQ(u, 1u);
    double d = 0.0;
    EXPECT_TRUE(a->items[1].AsDouble(&d));
    EXPECT_DOUBLE_EQ(d, 2.5);
    std::string s;
    EXPECT_TRUE(a->items[2].AsString(&s));
    EXPECT_EQ(s, "x");
    bool b = false;
    EXPECT_TRUE(a->items[3].AsBool(&b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(a->items[4].IsNull());
    // null decodes as 0.0 through AsDouble (the NaN/Inf convention).
    EXPECT_TRUE(a->items[4].AsDouble(&d));
    EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(Json, StrictRejectsWhatTheOldTestParserRejected)
{
    EXPECT_TRUE(JsonValid("{\"k\":[1,2,3]}"));
    EXPECT_TRUE(JsonValid("  {\"k\":\"\\u0001\"} "));
    EXPECT_FALSE(JsonValid(""));
    EXPECT_FALSE(JsonValid("{\"k\":nan}"));
    EXPECT_FALSE(JsonValid("{\"k\":inf}"));
    EXPECT_FALSE(JsonValid("{\"k\":0x10}"));
    EXPECT_FALSE(JsonValid("{\"k\":1,}"));
    EXPECT_FALSE(JsonValid("{\"k\":1} extra"));
    EXPECT_FALSE(JsonValid("\"unterminated"));
    EXPECT_FALSE(JsonValid("{\"k\":+1}"));
    EXPECT_FALSE(JsonValid("{\"k\":.5}"));
    EXPECT_FALSE(JsonValid(std::string("\"a\x01b\"")));
}

TEST(Json, HexStringsDecodeAsUint64)
{
    JsonValue value;
    ASSERT_TRUE(
        ParseJson("{\"fp\":\"0xffffffffffffffff\",\"n\":12345}", &value));
    uint64_t u = 0;
    EXPECT_TRUE(value.GetUint64("fp", &u));
    EXPECT_EQ(u, 0xffffffffffffffffull);
    EXPECT_TRUE(value.GetUint64("n", &u));
    EXPECT_EQ(u, 12345u);
    // Above 2^53: the raw-token path must not round through a double.
    ASSERT_TRUE(ParseJson("{\"n\":9007199254740993}", &value));
    EXPECT_TRUE(value.GetUint64("n", &u));
    EXPECT_EQ(u, 9007199254740993ull);
}

TEST(Json, EscapedStringsRoundTrip)
{
    // Raw guest bytes: the writer escapes per byte, the parser decodes.
    std::string raw;
    for (int c = 0; c < 256; ++c) {
        raw += static_cast<char>(c);
    }
    support::JsonWriter writer;
    writer.BeginObject();
    writer.Key("s"), writer.Value(raw);
    writer.EndObject();
    const std::string doc = writer.Take();
    ASSERT_TRUE(JsonValid(doc)) << doc;
    JsonValue value;
    ASSERT_TRUE(ParseJson(doc, &value));
    std::string decoded;
    ASSERT_TRUE(value.GetString("s", &decoded));
    EXPECT_EQ(decoded, raw);
}

// ---------------------------------------------------------------------------
// Run frame round-trips and required keys.
// ---------------------------------------------------------------------------

JobSpec
RandomSpec(Rng& rng)
{
    static const char* kWorkloads[] = {"py/argparse", "lua/JSON",
                                       "py/simplejson", "lua/haml"};
    JobSpec spec;
    spec.workload = kWorkloads[rng.Next() % 4];
    spec.label = "label#" + std::to_string(rng.Next() % 100);
    spec.seed = rng.Next();
    spec.exact_seed = (rng.Next() & 1) != 0;
    spec.options.max_runs = rng.Next() % 100000;
    spec.options.max_seconds = static_cast<double>(rng.Next() % 1000);
    return spec;
}

void
ExpectSpecsEqual(const JobSpec& a, const JobSpec& b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.exact_seed, b.exact_seed);
    EXPECT_EQ(a.options.max_runs, b.options.max_runs);
    EXPECT_DOUBLE_EQ(a.options.max_seconds, b.options.max_seconds);
}

TEST(Wire, RunRequestRoundTripsRandomSpecs)
{
    Rng rng(2014);
    for (int round = 0; round < 20; ++round) {
        RunRequest request;
        request.shard_id = static_cast<size_t>(rng.Next() % 8);
        request.num_shards = 8;
        request.service.seed = rng.Next();
        request.service.num_workers = 1 + rng.Next() % 8;
        request.service.max_total_seconds =
            static_cast<double>(rng.Next() % 100);
        request.service.plateau = (rng.Next() & 1) != 0;
        const size_t jobs = 1 + rng.Next() % 5;
        for (size_t i = 0; i < jobs; ++i) {
            WireJob job;
            job.job_index = rng.Next() % 64;
            job.spec = RandomSpec(rng);
            request.jobs.push_back(std::move(job));
        }

        const std::string line = EncodeRun(request);
        ASSERT_TRUE(JsonValid(line)) << line;
        Message message;
        std::string error;
        ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
        ASSERT_EQ(message.type, MessageType::kRun);
        const RunRequest& decoded = message.run;
        EXPECT_EQ(decoded.shard_id, request.shard_id);
        EXPECT_EQ(decoded.num_shards, request.num_shards);
        EXPECT_EQ(decoded.service.seed, request.service.seed);
        EXPECT_EQ(decoded.service.num_workers,
                  request.service.num_workers);
        EXPECT_DOUBLE_EQ(decoded.service.max_total_seconds,
                         request.service.max_total_seconds);
        EXPECT_EQ(decoded.service.plateau, request.service.plateau);
        ASSERT_EQ(decoded.jobs.size(), request.jobs.size());
        for (size_t i = 0; i < request.jobs.size(); ++i) {
            EXPECT_EQ(decoded.jobs[i].job_index,
                      request.jobs[i].job_index);
            ExpectSpecsEqual(decoded.jobs[i].spec, request.jobs[i].spec);
        }
    }
}

/// \p line with the member \p key removed from its flat object
/// \p object (one whose values hold no comma or brace); empty when the
/// frame has no such member.
std::string
WithoutMember(const std::string& line, const std::string& object,
              const std::string& key)
{
    const std::string open = "\"" + object + "\":{";
    const size_t begin = line.find(open);
    if (begin == std::string::npos) {
        return "";
    }
    const size_t first = begin + open.size();
    const size_t end = line.find('}', first);
    std::vector<std::string> members;
    for (size_t at = first; at < end;) {
        const size_t comma = std::min(line.find(',', at), end);
        members.push_back(line.substr(at, comma - at));
        at = comma + 1;
    }
    const auto match = std::find_if(
        members.begin(), members.end(), [&key](const std::string& member) {
            return member.rfind("\"" + key + "\":", 0) == 0;
        });
    if (match == members.end()) {
        return "";
    }
    members.erase(match);
    std::string inner;
    for (const std::string& member : members) {
        inner += (inner.empty() ? "" : ",") + member;
    }
    return line.substr(0, first) + inner + line.substr(end);
}

TEST(Wire, RunFrameWithoutAnyOneKeyFailsNamingIt)
{
    RunRequest request;
    request.service.seed = 7;
    WireJob job;
    job.job_index = 3;
    job.spec.workload = "py/argparse";
    job.spec.label = "argparse#3";
    job.spec.seed = 0x1234;
    request.jobs.push_back(job);
    const std::string line = EncodeRun(request);
    Message message;
    std::string error;
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;

    const std::pair<const char*, std::vector<std::string>> objects[] = {
        {"spec",
         {"workload", "label", "seed", "exact_seed", "max_runs",
          "max_seconds"}},
        {"service",
         {"seed", "num_workers", "max_total_seconds", "tracing",
          "metrics_interval_seconds", "plateau"}},
    };
    for (const auto& [object, keys] : objects) {
        for (const std::string& key : keys) {
            const std::string broken = WithoutMember(line, object, key);
            ASSERT_FALSE(broken.empty()) << object << "." << key;
            ASSERT_TRUE(JsonValid(broken)) << broken;
            Message decoded;
            error.clear();
            EXPECT_FALSE(DecodeMessage(broken, &decoded, &error)) << broken;
            EXPECT_NE(error.find("'" + key + "'"), std::string::npos)
                << object << "." << key << ": " << error;
        }
        // Those are all the object's keys: without every one of them it
        // is empty.
        std::string stripped = line;
        for (const std::string& key : keys) {
            stripped = WithoutMember(stripped, object, key);
        }
        EXPECT_NE(stripped.find(std::string("\"") + object + "\":{}"),
                  std::string::npos)
            << stripped;
    }
}

// ---------------------------------------------------------------------------
// Gossip / delta round-trips.
// ---------------------------------------------------------------------------

TEST(Wire, GossipRoundTripsFingerprintsAndYields)
{
    TestCorpus corpus;
    Rng rng(7);
    for (int i = 0; i < 30; ++i) {
        TestCorpus::Entry entry;
        entry.workload = (i % 3 == 0) ? "py/argparse" : "lua/JSON";
        entry.fingerprint = rng.Next();
        entry.outcome_kind = "ok";
        ASSERT_TRUE(corpus.Insert(entry));
    }
    corpus.RecordJobYield("py/argparse", 12, 7);
    corpus.RecordJobYield("lua/JSON", 4, 0);

    const TestCorpus::Delta delta = corpus.Snapshot("shard3", 0);
    const std::string line = EncodeGossip(delta);
    ASSERT_TRUE(JsonValid(line)) << line;

    Message message;
    std::string error;
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
    ASSERT_EQ(message.type, MessageType::kGossip);
    EXPECT_EQ(message.gossip.source, "shard3");
    EXPECT_EQ(message.gossip.sequence, delta.sequence);
    ASSERT_EQ(message.gossip.entries.size(), delta.entries.size());
    for (size_t i = 0; i < delta.entries.size(); ++i) {
        EXPECT_EQ(message.gossip.entries[i].workload,
                  delta.entries[i].workload);
        EXPECT_EQ(message.gossip.entries[i].fingerprint,
                  delta.entries[i].fingerprint);
    }
    ASSERT_EQ(message.gossip.yields.size(), 2u);
    const TestCorpus::WorkloadYield& py =
        message.gossip.yields.at("py/argparse");
    EXPECT_EQ(py.jobs_recorded, 1u);
    EXPECT_EQ(py.offered_total, 12u);
    EXPECT_EQ(py.accepted_total, 7u);
    EXPECT_DOUBLE_EQ(py.decayed_yield, 7.0);
    EXPECT_EQ(message.gossip.yields.at("lua/JSON").consecutive_zero_yield,
              1u);
}

ProgressMessage
SampleProgress()
{
    ProgressMessage progress;
    progress.shard_id = 1;

    JobResult job;
    job.job_index = 7;
    job.workload = "py/argparse";
    job.label = "argparse#1";
    job.status = JobStatus::kCancelled;
    job.stop_source = "plateau";
    job.error = "workload plateaued";
    job.seed_used = 0xdeadbeefcafef00dull;
    // Non-finite doubles must serialize as null and decode as 0.0 (the
    // wire contract for "not a measurement").
    job.engine_stats.elapsed_seconds =
        -std::numeric_limits<double>::infinity();
    job.engine_stats.hl_paths = 5;
    progress.results.push_back(job);

    TestCorpus::Entry entry;
    entry.workload = "py/argparse";
    entry.fingerprint = 0xffffffffffffff01ull;
    entry.job_index = 7;
    entry.outcome_kind = "exception";
    entry.outcome_detail = "KeyError";
    entry.hl_length = 9;
    entry.ll_steps = 12345;
    entry.inputs = {{1, 0x41}, {2, 0xffffffffffffffffull}};
    progress.corpus.source = "shard1";
    progress.corpus.sequence = 30;
    progress.corpus.entries.push_back(entry);
    progress.corpus.yields["py/argparse"].jobs_recorded = 2;
    return progress;
}

void
ExpectSampleProgress(const ProgressMessage& decoded)
{
    const ProgressMessage sent = SampleProgress();
    EXPECT_EQ(decoded.shard_id, 1u);
    ASSERT_EQ(decoded.results.size(), 1u);
    EXPECT_EQ(decoded.results[0].job_index, 7u);
    EXPECT_EQ(decoded.results[0].status, JobStatus::kCancelled);
    EXPECT_EQ(decoded.results[0].stop_source, "plateau");
    EXPECT_EQ(decoded.results[0].error, "workload plateaued");
    EXPECT_EQ(decoded.results[0].seed_used, 0xdeadbeefcafef00dull);
    EXPECT_DOUBLE_EQ(decoded.results[0].engine_stats.elapsed_seconds,
                     0.0);
    EXPECT_EQ(decoded.results[0].engine_stats.hl_paths, 5u);
    EXPECT_EQ(decoded.corpus.source, "shard1");
    EXPECT_EQ(decoded.corpus.sequence, 30u);
    ASSERT_EQ(decoded.corpus.entries.size(), 1u);
    const TestCorpus::Entry& entry = sent.corpus.entries[0];
    const TestCorpus::Entry& roundtripped = decoded.corpus.entries[0];
    EXPECT_EQ(roundtripped.workload, entry.workload);
    EXPECT_EQ(roundtripped.fingerprint, entry.fingerprint);
    EXPECT_EQ(roundtripped.job_index, entry.job_index);
    EXPECT_EQ(roundtripped.outcome_kind, entry.outcome_kind);
    EXPECT_EQ(roundtripped.outcome_detail, entry.outcome_detail);
    EXPECT_EQ(roundtripped.hl_length, entry.hl_length);
    EXPECT_EQ(roundtripped.ll_steps, entry.ll_steps);
    EXPECT_EQ(roundtripped.inputs, entry.inputs);
    EXPECT_EQ(decoded.corpus.yields.at("py/argparse").jobs_recorded, 2u);
}

TEST(Wire, ProgressRoundTripsEntriesResultsAndNonFiniteDoubles)
{
    const std::string line = EncodeProgress(SampleProgress());
    ASSERT_TRUE(JsonValid(line)) << line;
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("inf"), std::string::npos);
    // Between metrics ticks, with no results, there is no bundle.
    EXPECT_EQ(line.find("telemetry"), std::string::npos);

    Message message;
    std::string error;
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
    ASSERT_EQ(message.type, MessageType::kProgress);
    ExpectSampleProgress(message.progress);
    EXPECT_FALSE(message.progress.telemetry.has_value());
}

// ---------------------------------------------------------------------------
// The telemetry bundle and unknown keys.
// ---------------------------------------------------------------------------

obs::AttributionSnapshot
SampleAttribution()
{
    obs::AttributionSnapshot snapshot;
    obs::AttributionRow& a = snapshot.workloads["py/argparse"][0x10];
    a.solver_nanos = 1'500'000;
    a.solver_queries = 3;
    a.steps = 42;
    a.new_fingerprints = 2;
    a.runs = 1;
    obs::AttributionRow& b = snapshot.workloads["py/argparse"][0x20];
    b.steps = 7;
    b.forks = 2;
    b.parent = 0x10;
    snapshot.workloads["lua/JSON"][0x99].assume_failures = 1;
    snapshot.dropped_locations = 5;
    return snapshot;
}

Telemetry
SampleTelemetry()
{
    Telemetry telemetry;
    telemetry.metrics.counters = {{"solver.queries", 7}};
    obs::SeriesSample sample;
    sample.index = 3;
    sample.t_seconds = 0.5;
    sample.metrics.counters = {{"service.jobs_finished", 2}};
    telemetry.series = {sample};
    telemetry.attribution = SampleAttribution();
    return telemetry;
}

void
ExpectSampleTelemetry(const Telemetry& decoded)
{
    EXPECT_EQ(decoded.metrics.CounterValue("solver.queries"), 7u);
    ASSERT_EQ(decoded.series.size(), 1u);
    EXPECT_EQ(decoded.series[0].index, 3u);
    EXPECT_DOUBLE_EQ(decoded.series[0].t_seconds, 0.5);
    EXPECT_EQ(decoded.series[0].metrics.CounterValue("service.jobs_finished"),
              2u);
    ASSERT_TRUE(decoded.attribution.has_value());
    const obs::AttributionSnapshot& attribution = *decoded.attribution;
    EXPECT_TRUE(
        obs::AttributionCountsEqual(attribution, SampleAttribution()));
    const obs::AttributionRow& row =
        attribution.workloads.at("py/argparse").at(0x10);
    EXPECT_EQ(row.solver_nanos, 1'500'000u);
    EXPECT_EQ(attribution.workloads.at("py/argparse").at(0x20).parent,
              0x10u);
    EXPECT_EQ(attribution.dropped_locations, 5u);
}

TEST(Wire, ProgressCarriesTheTelemetryBundleWithOrWithoutAttribution)
{
    Message message;
    std::string error;

    // At the metrics cadence: the full bundle.
    ProgressMessage progress = SampleProgress();
    progress.telemetry = SampleTelemetry();
    std::string line = EncodeProgress(progress);
    ASSERT_TRUE(JsonValid(line)) << line;
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
    ExpectSampleProgress(message.progress);
    ASSERT_TRUE(message.progress.telemetry.has_value());
    ExpectSampleTelemetry(*message.progress.telemetry);

    // Between ticks, a frame with results carries the metrics only.
    progress.telemetry->series.clear();
    progress.telemetry->attribution.reset();
    line = EncodeProgress(progress);
    EXPECT_EQ(line.find("attribution"), std::string::npos);
    message = Message();
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
    ASSERT_TRUE(message.progress.telemetry.has_value());
    EXPECT_EQ(message.progress.telemetry->metrics.CounterValue(
                  "solver.queries"),
              7u);
    EXPECT_TRUE(message.progress.telemetry->series.empty());
    EXPECT_FALSE(message.progress.telemetry->attribution.has_value());
}

TEST(Wire, ResultCarriesOnlyTelemetryAndTrace)
{
    ResultMessage result;
    result.shard_id = 3;
    result.telemetry = SampleTelemetry();
    obs::TraceEvent span;
    span.name = "job";
    span.cat = "service";
    span.ts_us = 10;
    span.dur_us = 5;
    span.pid = 4;
    result.trace.push_back(span);
    const std::string line = EncodeResult(result);
    ASSERT_TRUE(JsonValid(line)) << line;
    JsonValue root;
    ASSERT_TRUE(ParseJson(line, &root));
    for (const char* key : {"results", "corpus"}) {
        EXPECT_EQ(root.Find(key), nullptr) << key;
    }
    Message message;
    std::string error;
    ASSERT_TRUE(DecodeMessage(line, &message, &error)) << error;
    ASSERT_EQ(message.type, MessageType::kResult);
    EXPECT_EQ(message.result.shard_id, 3u);
    ExpectSampleTelemetry(message.result.telemetry);
    ASSERT_EQ(message.result.trace.size(), 1u);
    EXPECT_EQ(message.result.trace[0].name, "job");
    EXPECT_EQ(message.result.trace[0].pid, 4u);

    // An empty bundle still writes metrics and series.
    ResultMessage plain;
    plain.telemetry.attribution.emplace();
    const std::string empty = EncodeResult(plain);
    for (const char* key :
         {"\"metrics\"", "\"series\"", "\"attribution\"", "\"trace\""}) {
        EXPECT_NE(empty.find(key), std::string::npos) << key;
    }
    message = Message();
    ASSERT_TRUE(DecodeMessage(empty, &message, &error)) << error;
    EXPECT_TRUE(message.result.telemetry.series.empty());
    ASSERT_TRUE(message.result.telemetry.attribution.has_value());
    EXPECT_TRUE(message.result.telemetry.attribution->empty());
}

// Unknown keys are skipped by every decoder: the wire has one version,
// but a peer may still add a diagnostic key without breaking anyone.
// Splice unknown keys into otherwise-valid frames.
TEST(Wire, DecodersIgnoreUnknownKeys)
{
    TestCorpus corpus;
    TestCorpus::Entry entry;
    entry.workload = "py/argparse";
    entry.fingerprint = 0x1234;
    entry.outcome_kind = "ok";
    ASSERT_TRUE(corpus.Insert(entry));
    const TestCorpus::Delta delta = corpus.Snapshot("shard0", 0);
    const Telemetry telemetry = SampleTelemetry();

    const auto splice = [](std::string line, const std::string& extra) {
        // After the opening '{' of the top-level object.
        return "{" + extra + "," + line.substr(1);
    };
    const std::string unknown =
        "\"extra_hint\":{\"nested\":[1,2,3]},\"extra_flag\":true";

    Message message;
    std::string error;

    // Gossip with unknown top-level keys.
    const std::string gossip = splice(EncodeGossip(delta), unknown);
    ASSERT_TRUE(JsonValid(gossip));
    ASSERT_TRUE(DecodeMessage(gossip, &message, &error)) << error;
    EXPECT_EQ(message.type, MessageType::kGossip);
    ASSERT_EQ(message.gossip.entries.size(), 1u);
    EXPECT_EQ(message.gossip.entries[0].fingerprint, 0x1234u);

    // Progress with unknown top-level keys.
    ProgressMessage progress;
    progress.corpus = delta;
    progress.telemetry = telemetry;
    message = Message();
    const std::string progress_line =
        splice(EncodeProgress(progress), unknown);
    ASSERT_TRUE(JsonValid(progress_line));
    ASSERT_TRUE(DecodeMessage(progress_line, &message, &error)) << error;
    EXPECT_EQ(message.type, MessageType::kProgress);
    ASSERT_EQ(message.progress.corpus.entries.size(), 1u);
    ASSERT_TRUE(message.progress.telemetry.has_value());

    // Result with unknown keys at top level.
    ResultMessage result;
    result.shard_id = 2;
    result.telemetry = telemetry;
    message = Message();
    const std::string result_line = splice(EncodeResult(result), unknown);
    ASSERT_TRUE(JsonValid(result_line));
    ASSERT_TRUE(DecodeMessage(result_line, &message, &error)) << error;
    EXPECT_EQ(message.result.shard_id, 2u);
    ASSERT_TRUE(message.result.telemetry.attribution.has_value());
    EXPECT_TRUE(obs::AttributionCountsEqual(
        *message.result.telemetry.attribution, *telemetry.attribution));

    // A metrics snapshot with unknown keys must decode its known fields
    // and skip the rest.
    const std::string metrics_doc =
        "{\"future_section\":{\"x\":1},"
        "\"counters\":{\"solver.queries\":7},"
        "\"gauges\":{},\"histograms\":[]}";
    JsonValue metrics_value;
    ASSERT_TRUE(ParseJson(metrics_doc, &metrics_value));
    obs::MetricsSnapshot metrics;
    ASSERT_TRUE(
        obs::DecodeMetricsSnapshot(metrics_value, &metrics, &error))
        << error;
    EXPECT_EQ(metrics.CounterValue("solver.queries"), 7u);

    // Same for an attribution table with unknown keys at every level:
    // every column is present, so the extras are all that is skipped.
    const std::string attr_doc =
        "{\"schema_rev\":9,\"dropped_locations\":0,"
        "\"workloads\":[{\"workload\":\"w\",\"future\":true,"
        "\"locations\":[{\"hl_pc\":\"0x5\",\"solver_nanos\":11,"
        "\"solver_queries\":1,\"steps\":3,\"forks\":2,"
        "\"assume_failures\":0,\"new_fingerprints\":1,\"runs\":1,"
        "\"extra_column\":17}]}]}";
    JsonValue attr_value;
    ASSERT_TRUE(ParseJson(attr_doc, &attr_value));
    obs::AttributionSnapshot decoded;
    ASSERT_TRUE(
        obs::DecodeAttributionSnapshot(attr_value, &decoded, &error))
        << error;
    const obs::AttributionRow& row = decoded.workloads.at("w").at(0x5);
    EXPECT_EQ(row.steps, 3u);
    EXPECT_EQ(row.solver_nanos, 11u);
    EXPECT_EQ(row.forks, 2u);
}

TEST(Wire, MalformedAndUnknownMessagesFailLoudly)
{
    Message message;
    std::string error;
    EXPECT_FALSE(DecodeMessage("not json", &message, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(DecodeMessage("{\"type\":\"warp\"}", &message, &error));
    EXPECT_NE(error.find("warp"), std::string::npos);
    // A run request with a missing field must not decode to defaults.
    EXPECT_FALSE(DecodeMessage("{\"type\":\"run\",\"shard_id\":0}",
                               &message, &error));

    // 32-bit fields fail the frame instead of wrapping: a hello whose
    // version is 2^32 above the current one is refused, not read as it.
    const auto replace = [](std::string line, const std::string& from,
                            const std::string& to) {
        const size_t at = line.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? line
                                       : line.replace(at, from.size(), to);
    };
    const std::string version =
        "\"protocol_version\":" + std::to_string(kProtocolVersion);
    const std::string wrapped_hello = replace(
        EncodeHello(), version,
        "\"protocol_version\":" +
            std::to_string((uint64_t{1} << 32) + kProtocolVersion));
    EXPECT_FALSE(DecodeMessage(wrapped_hello, &message, &error))
        << wrapped_hello;
    EXPECT_NE(error.find("exceeds 32 bits"), std::string::npos) << error;
    // So are corpus input variable ids.
    ProgressMessage progress;
    progress.results.emplace_back();
    TestCorpus::Entry entry;
    entry.workload = "py/argparse";
    entry.inputs = {{7, 0x41}};
    progress.corpus.entries.push_back(entry);
    const std::string with_input = EncodeProgress(progress);
    ASSERT_TRUE(DecodeMessage(with_input, &message, &error)) << error;
    EXPECT_FALSE(DecodeMessage(
        replace(with_input, "[7,", "[4294967303,"), &message, &error));

    // The heartbeat frame is gone: progress replaced it.
    EXPECT_FALSE(DecodeMessage(
        "{\"type\":\"heartbeat\",\"shard_id\":0,\"sequence\":1,"
        "\"results\":[]}",
        &message, &error));
    EXPECT_NE(error.find("heartbeat"), std::string::npos) << error;

    EXPECT_TRUE(DecodeMessage(EncodeShutdown(), &message, &error));
    EXPECT_EQ(message.type, MessageType::kShutdown);
    EXPECT_TRUE(DecodeMessage(EncodeHello(), &message, &error));
    EXPECT_EQ(message.type, MessageType::kHello);
    EXPECT_EQ(message.protocol_version, kProtocolVersion);
    EXPECT_TRUE(DecodeMessage(EncodeError("boom"), &message, &error));
    EXPECT_EQ(message.type, MessageType::kError);
    EXPECT_EQ(message.error, "boom");
}

}  // namespace
}  // namespace chef::shard
