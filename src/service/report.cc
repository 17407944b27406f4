#include "service/report.h"

#include <cstdio>
#include <string>

#include "support/json.h"

namespace chef::service {

namespace {

using support::JsonWriter;

}  // namespace

void
WriteServiceStats(JsonWriter& json, const ServiceStats& stats)
{
    json.BeginObject();
    json.Key("jobs_submitted"), json.Value(stats.jobs_submitted);
    json.Key("jobs_completed"), json.Value(stats.jobs_completed);
    json.Key("jobs_cancelled"), json.Value(stats.jobs_cancelled);
    json.Key("jobs_plateau_cancelled"),
        json.Value(stats.jobs_plateau_cancelled);
    json.Key("jobs_failed"), json.Value(stats.jobs_failed);
    json.Key("ll_paths"), json.Value(stats.ll_paths);
    json.Key("hl_paths"), json.Value(stats.hl_paths);
    json.Key("hangs"), json.Value(stats.hangs);
    json.Key("solver_queries"), json.Value(stats.solver_queries);
    json.Key("solver_sliced_queries"),
        json.Value(stats.solver_sliced_queries);
    json.Key("solver_incremental_sat_calls"),
        json.Value(stats.solver_incremental_sat_calls);
    json.Key("solver_clauses_loaded"),
        json.Value(stats.solver_clauses_loaded);
    json.Key("solver_seconds"), json.Value(stats.solver_seconds);
    json.Key("corpus_size"), json.Value(stats.corpus_size);
    json.Key("engine_seconds"), json.Value(stats.engine_seconds);
    json.Key("wall_seconds"), json.Value(stats.wall_seconds);
    json.Key("jobs_per_second"), json.Value(stats.jobs_per_second);
    json.Key("num_workers"), json.Value(stats.num_workers);
    json.Key("schedule_policy"),
        json.Value(SchedulePolicyName(stats.schedule_policy));
    json.Key("events_delivered"), json.Value(stats.events_delivered);
    json.EndObject();
}

void
WriteJobResult(JsonWriter& json, const JobResult& result)
{
    json.BeginObject();
    json.Key("job_index"), json.Value(result.job_index);
    json.Key("workload"), json.Value(result.workload);
    json.Key("label"), json.Value(result.label);
    json.Key("status"), json.Value(JobStatusName(result.status));
    json.Key("stop_source"), json.Value(result.stop_source);
    if (!result.error.empty()) {
        json.Key("error"), json.Value(result.error);
    }
    json.Key("seed_used"), json.HexValue(result.seed_used);
    json.Key("test_cases"), json.Value(result.num_test_cases);
    json.Key("relevant_test_cases"),
        json.Value(result.num_relevant_test_cases);
    json.Key("corpus_inserted"), json.Value(result.corpus_inserted);
    json.Key("ll_paths"), json.Value(result.engine_stats.ll_paths);
    json.Key("hl_paths"), json.Value(result.engine_stats.hl_paths);
    json.Key("hangs"), json.Value(result.engine_stats.hangs);
    json.Key("solver_queries"),
        json.Value(result.engine_stats.solver_queries);
    json.Key("solver_sliced_queries"),
        json.Value(result.engine_stats.solver_sliced_queries);
    json.Key("solver_incremental_sat_calls"),
        json.Value(result.engine_stats.solver_incremental_sat_calls);
    json.Key("solver_clauses_loaded"),
        json.Value(result.engine_stats.solver_clauses_loaded);
    json.Key("solver_seconds"),
        json.Value(result.engine_stats.solver_seconds);
    json.Key("stopped"), json.Value(result.engine_stats.stopped);
    json.Key("elapsed_seconds"),
        json.Value(result.engine_stats.elapsed_seconds);
    json.EndObject();
}

namespace {

void
WriteCorpusEntry(JsonWriter& json, const TestCorpus::Entry& entry,
                 bool include_inputs)
{
    json.BeginObject();
    json.Key("workload"), json.Value(entry.workload);
    json.Key("fingerprint"), json.HexValue(entry.fingerprint);
    json.Key("job_index"), json.Value(entry.job_index);
    json.Key("outcome_kind"), json.Value(entry.outcome_kind);
    if (!entry.outcome_detail.empty()) {
        json.Key("outcome_detail"), json.Value(entry.outcome_detail);
    }
    json.Key("hl_length"), json.Value(entry.hl_length);
    json.Key("ll_steps"), json.Value(entry.ll_steps);
    if (include_inputs) {
        json.Key("inputs");
        json.BeginArray();
        for (const auto& [var_id, value] : entry.inputs) {
            json.BeginArray();
            json.Value(static_cast<uint64_t>(var_id));
            json.Value(value);
            json.EndArray();
        }
        json.EndArray();
    }
    json.EndObject();
}

}  // namespace

std::string
RenderJsonReport(const ServiceStats& stats,
                 const std::vector<JobResult>& results,
                 const TestCorpus& corpus, const ReportOptions& options)
{
    JsonWriter json;
    json.BeginObject();
    json.Key("report"), json.Value("chef-exploration-service");
    json.Key("stats");
    WriteServiceStats(json, stats);
    json.Key("jobs");
    json.BeginArray();
    for (const JobResult& result : results) {
        WriteJobResult(json, result);
    }
    json.EndArray();
    const size_t total_entries = corpus.size();
    json.Key("corpus_size"), json.Value(total_entries);
    const std::vector<TestCorpus::Entry> entries =
        corpus.Snapshot(options.max_corpus_entries);
    // Entries dropped by max_corpus_entries: without this count a capped
    // snapshot is indistinguishable from a small corpus. Consumers check
    // corpus_truncated == 0 before treating the array as complete.
    json.Key("corpus_truncated"),
        json.Value(total_entries > entries.size()
                       ? total_entries - entries.size()
                       : 0);
    json.Key("corpus");
    json.BeginArray();
    for (const TestCorpus::Entry& entry : entries) {
        WriteCorpusEntry(json, entry, options.include_inputs);
    }
    json.EndArray();
    json.EndObject();
    return json.Take();
}

bool
WriteJsonReportFile(const std::string& path, const ServiceStats& stats,
                    const std::vector<JobResult>& results,
                    const TestCorpus& corpus, const ReportOptions& options)
{
    const std::string report =
        RenderJsonReport(stats, results, corpus, options);
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        return false;
    }
    const size_t written =
        std::fwrite(report.data(), 1, report.size(), file);
    const bool flushed = std::fclose(file) == 0;
    return written == report.size() && flushed;
}

}  // namespace chef::service
