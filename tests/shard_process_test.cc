/// \file
/// Black-box tests of the chef_shard CLI. Each case runs the real binary
/// (a coordinator spawning `chef_shard --worker` subprocesses over pipes)
/// into a fresh temporary directory, then parses and checks the files it
/// wrote: the merged report, the Chrome trace, the NDJSON stats stream,
/// the coverage-curves CSV, the series dump, the attribution table and
/// the folded stacks. Corpus baselines come from a second CLI run with
/// `--workers 1` on the same flags. The chaos case drives the built-in
/// `--chaos kill-one` drill, a real SIGKILL of a worker mid-batch.
///
/// chef_shard is looked up next to this test binary (every executable
/// lands flat in the build directory).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/attribution.h"
#include "shard/wire.h"
#include "support/json.h"

extern char** environ;

namespace chef {
namespace {

using support::JsonValue;

/// (workload, fingerprint): the identity of one merged-corpus entry.
using CorpusKey = std::pair<std::string, uint64_t>;

std::string
ShardBinary()
{
    return (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
            "chef_shard")
        .string();
}

/// A temporary directory, removed with everything in it.
class TemporaryDir
{
  public:
    TemporaryDir()
    {
        std::string pattern = ::testing::TempDir() + "chef_shard_XXXXXX";
        if (::mkdtemp(pattern.data()) != nullptr) {
            path_ = pattern;
        }
    }
    ~TemporaryDir()
    {
        if (!path_.empty()) {
            std::error_code ignored;
            std::filesystem::remove_all(path_, ignored);
        }
    }
    TemporaryDir(const TemporaryDir&) = delete;
    TemporaryDir& operator=(const TemporaryDir&) = delete;

    bool ok() const { return !path_.empty(); }
    std::string Path(const std::string& name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

std::string
ReadFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    return contents.str();
}

struct CliRun {
    int exit_code = -1;
    std::string err;
};

/// Runs `chef_shard --coordinator` with \p args, stdout and stderr
/// captured under \p dir with \p tag in their names. The worker
/// processes share the coordinator's stderr, so a ThreadSanitizer report
/// from any of them fails the test even though a worker's exit status
/// never reaches the coordinator's.
CliRun
RunCoordinator(const TemporaryDir& dir, const std::string& tag,
               std::vector<std::string> args)
{
    const std::string binary = ShardBinary();
    args.insert(args.begin(), {binary, "--coordinator"});
    std::vector<char*> argv;
    for (std::string& arg : args) {
        argv.push_back(arg.data());
    }
    argv.push_back(nullptr);

    const std::string out_path = dir.Path(tag + ".stdout");
    const std::string err_path = dir.Path(tag + ".stderr");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     out_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     err_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    CliRun run;
    pid_t pid = -1;
    const int spawned = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
        run.err = "posix_spawn " + binary + " failed";
        return run;
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) == pid && WIFEXITED(status)) {
        run.exit_code = WEXITSTATUS(status);
    }
    run.err = ReadFile(err_path);
    EXPECT_EQ(run.err.find("WARNING: ThreadSanitizer"), std::string::npos)
        << run.err;
    return run;
}

/// Parses \p path as strict JSON; a parse failure fails the test.
JsonValue
ParseFile(const std::string& path)
{
    JsonValue value;
    std::string error;
    EXPECT_TRUE(support::ParseJson(ReadFile(path), &value, &error))
        << path << ": " << error;
    return value;
}

/// The child of \p parent at the path \p keys, or a null value.
const JsonValue&
At(const JsonValue& parent, std::initializer_list<const char*> keys)
{
    static const JsonValue kMissing;
    const JsonValue* node = &parent;
    for (const char* key : keys) {
        node = node->Find(key);
        if (node == nullptr) {
            return kMissing;
        }
    }
    return *node;
}

uint64_t
U64(const JsonValue& object, const char* key)
{
    uint64_t value = 0;
    EXPECT_TRUE(object.GetUint64(key, &value)) << "missing " << key;
    return value;
}

/// A counter of a metrics snapshot; 0 when it never incremented.
uint64_t
Counter(const JsonValue& snapshot, const char* name)
{
    uint64_t value = 0;
    At(snapshot, {"counters"}).GetUint64(name, &value);
    return value;
}

bool
ShardDead(const JsonValue& report, size_t shard)
{
    const std::vector<JsonValue>& shards = At(report, {"shards"}).items;
    bool dead = false;
    return shard < shards.size() && shards[shard].GetBool("dead", &dead) &&
           dead;
}

std::vector<CorpusKey>
CorpusKeys(const JsonValue& report)
{
    const JsonValue& merged = At(report, {"merged"});
    EXPECT_EQ(U64(merged, "corpus_truncated"), 0u);
    std::vector<CorpusKey> keys;
    for (const JsonValue& entry : At(merged, {"corpus"}).items) {
        CorpusKey key;
        EXPECT_TRUE(entry.GetString("workload", &key.first));
        EXPECT_TRUE(entry.GetUint64("fingerprint", &key.second));
        keys.push_back(std::move(key));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

bool
Covers(const std::vector<CorpusKey>& superset,
       const std::vector<CorpusKey>& subset)
{
    return std::includes(superset.begin(), superset.end(), subset.begin(),
                         subset.end());
}

obs::AttributionSnapshot
ReadAttribution(const std::string& path)
{
    obs::AttributionSnapshot snapshot;
    std::string error;
    EXPECT_TRUE(
        obs::DecodeAttributionSnapshot(ParseFile(path), &snapshot, &error))
        << path << ": " << error;
    return snapshot;
}

std::vector<std::string>
Lines(const std::string& text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (!line.empty()) {
            lines.push_back(line);
        }
    }
    return lines;
}

/// The merged report carries the cross-shard dedup stats, one stats
/// section, telemetry snapshot and attribution table per shard, a
/// cluster telemetry merge whose solver.queries is the sum over the
/// surviving shards (at least that sum on a degraded run, where requeue
/// rounds of since-dead shards may have merged work no surviving
/// snapshot shows), and the two labeled solver-time views.
void
ExpectReportConsistent(const JsonValue& report, size_t workers)
{
    uint64_t version = 0;
    EXPECT_TRUE(report.GetUint64("protocol_version", &version));
    EXPECT_EQ(version, static_cast<uint64_t>(shard::kProtocolVersion));
    EXPECT_EQ(report.Find("protocol_minor"), nullptr);
    for (const char* key : {"fingerprints_gossiped", "remote_duplicate_hits",
                            "jobs_suppressed", "merge_duplicates"}) {
        SCOPED_TRACE(key);
        U64(At(report, {"cross_shard"}), key);
    }
    EXPECT_EQ(At(report, {"shards"}).items.size(), workers);

    const JsonValue& shards = At(report, {"telemetry", "shards"});
    const JsonValue& cluster = At(report, {"telemetry", "cluster"});
    ASSERT_EQ(shards.items.size(), workers);
    EXPECT_NE(cluster.Find("counters"), nullptr);
    EXPECT_NE(cluster.Find("histograms"), nullptr);
    uint64_t shard_queries = 0;
    for (size_t i = 0; i < shards.items.size(); ++i) {
        if (!ShardDead(report, i)) {
            shard_queries +=
                Counter(At(shards.items[i], {"metrics"}), "solver.queries");
        }
    }
    const uint64_t cluster_queries = Counter(cluster, "solver.queries");
    EXPECT_GT(cluster_queries, 0u);
    bool degraded = false;
    EXPECT_TRUE(report.GetBool("degraded", &degraded));
    if (degraded) {
        EXPECT_GE(cluster_queries, shard_queries);
    } else {
        EXPECT_EQ(cluster_queries, shard_queries);
    }

    EXPECT_EQ(At(report, {"telemetry", "attribution", "shards"}).items.size(),
              workers);
    EXPECT_NE(At(report, {"telemetry", "attribution"}).Find("cluster"),
              nullptr);

    double total = 0.0;
    double max_shard = 0.0;
    EXPECT_TRUE(report.GetDouble("solver_seconds_total", &total));
    EXPECT_TRUE(report.GetDouble("solver_seconds_max_shard", &max_shard));
    EXPECT_GE(total + 1e-12, max_shard);
}

/// Every line of the --stats-out stream is one strict JSON object: a
/// telemetry sample, or a lifecycle event (a shard death) with its own
/// schema. At least \p min_samples samples arrived, and every one of
/// \p deaths left an event record.
void
ExpectStatsStream(const std::string& path, size_t min_samples,
                  uint64_t deaths)
{
    size_t samples = 0;
    size_t events = 0;
    for (const std::string& line : Lines(ReadFile(path))) {
        SCOPED_TRACE(line.substr(0, 120));
        JsonValue record;
        ASSERT_TRUE(support::ParseJson(line, &record));
        ASSERT_EQ(record.kind, JsonValue::Kind::kObject);
        if (record.Find("event") != nullptr) {
            for (const char* key : {"shard", "cause", "t_seconds"}) {
                EXPECT_NE(record.Find(key), nullptr) << key;
            }
            ++events;
            continue;
        }
        for (const char* key : {"source", "index", "t_seconds",
                                "jobs_per_second",
                                "fingerprints_per_second", "cluster"}) {
            EXPECT_NE(record.Find(key), nullptr) << key;
        }
        ++samples;
    }
    EXPECT_GE(samples, min_samples);
    EXPECT_GE(events, deaths);
}

// The traced two-worker run with every telemetry sink on. A shard's
// --max-runs 120 batch takes about 0.1 s on a 4-vCPU host, so a 100 ms
// metrics interval leaves 4 to 6 samples in all against the 5 the
// stream must show; a 20 ms interval gives each shard several.
TEST(ShardProcess, TracedRunWritesConsistentArtifacts)
{
    TemporaryDir dir;
    ASSERT_TRUE(dir.ok());
    const CliRun run = RunCoordinator(
        dir, "traced",
        {"--workers", "2", "--max-runs", "120", "--report",
         dir.Path("report.json"), "--trace-out=" + dir.Path("trace.json"),
         "--metrics-interval=20", "--stats-out=" + dir.Path("stats.ndjson"),
         "--curves-out=" + dir.Path("curves.csv"),
         "--series-out=" + dir.Path("series.json"),
         "--attr-out=" + dir.Path("attr.json"),
         "--flame-out=" + dir.Path("flame.txt")});
    ASSERT_EQ(run.exit_code, 0) << run.err;

    const JsonValue report = ParseFile(dir.Path("report.json"));
    ExpectReportConsistent(report, 2);
    bool degraded = true;
    ASSERT_TRUE(report.GetBool("degraded", &degraded));
    ASSERT_FALSE(degraded) << "an undisturbed run lost a shard";

    // Trace: strict JSON with spans from both worker shards (pids 1 and
    // 2; pid 0 is the coordinator's own tracer).
    {
        const JsonValue trace = ParseFile(dir.Path("trace.json"));
        std::set<uint64_t> pids;
        for (const JsonValue& event : At(trace, {"traceEvents"}).items) {
            uint64_t pid = 0;
            if (event.GetUint64("pid", &pid)) {
                pids.insert(pid);
            }
        }
        EXPECT_EQ(pids.count(1), 1u);
        EXPECT_EQ(pids.count(2), 1u);
    }

    ExpectStatsStream(dir.Path("stats.ndjson"), 5, 0);
    ParseFile(dir.Path("series.json"));

    // Coverage CSV: the cluster "__all__" curve is monotone and ends
    // exactly at the report's cluster totals (the recorder's final
    // sample is taken after all batch accounting).
    {
        const std::vector<std::string> rows =
            Lines(ReadFile(dir.Path("curves.csv")));
        unsigned long long last_jobs = 0;
        unsigned long long last_fp = 0;
        size_t all_rows = 0;
        for (const std::string& row : rows) {
            unsigned long long jobs = 0;
            unsigned long long fp = 0;
            double t = 0.0;
            if (std::sscanf(row.c_str(), "__all__,%lf,%llu,%llu", &t, &jobs,
                            &fp) != 3) {
                continue;
            }
            EXPECT_GE(jobs, last_jobs) << row;
            EXPECT_GE(fp, last_fp) << row;
            last_jobs = jobs;
            last_fp = fp;
            ++all_rows;
        }
        const JsonValue& cluster = At(report, {"telemetry", "cluster"});
        EXPECT_GT(all_rows, 0u);
        EXPECT_EQ(last_jobs, Counter(cluster, "service.jobs_finished"));
        EXPECT_EQ(last_fp, Counter(cluster, "corpus.fingerprints_new"));
    }

    // Attribution: at least one charged location, and the attributed
    // solver seconds agree with the report's solver_seconds_total (both
    // measure the same Solve calls; only double-vs-nanos rounding
    // separates them).
    {
        const obs::AttributionSnapshot table =
            ReadAttribution(dir.Path("attr.json"));
        size_t locations = 0;
        for (const auto& [workload, rows] : table.workloads) {
            locations += rows.size();
        }
        EXPECT_GT(locations, 0u);
        double reported = 0.0;
        EXPECT_TRUE(report.GetDouble("solver_seconds_total", &reported));
        EXPECT_NEAR(table.SolverSecondsTotal(), reported,
                    0.05 * reported + 0.05);
    }

    // Folded stacks: `workload;0x..;0x.. value` lines.
    {
        const std::string flame = ReadFile(dir.Path("flame.txt"));
        ASSERT_FALSE(flame.empty());
        EXPECT_EQ(flame.back(), '\n');
        for (const std::string& line : Lines(flame)) {
            const size_t space = line.rfind(' ');
            ASSERT_NE(space, std::string::npos) << line;
            EXPECT_NE(line.find(';'), std::string::npos) << line;
            const std::string value = line.substr(space + 1);
            EXPECT_FALSE(value.empty()) << line;
            EXPECT_EQ(value.find_first_not_of("0123456789"),
                      std::string::npos)
                << line;
        }
    }

    // The two-process merged corpus covers a one-worker run of the same
    // batch: seeds derive from global job indices, so the corpora are
    // comparable key for key.
    const CliRun single = RunCoordinator(
        dir, "single",
        {"--workers", "1", "--max-runs", "120", "--report",
         dir.Path("single.json")});
    ASSERT_EQ(single.exit_code, 0) << single.err;
    const std::vector<CorpusKey> merged = CorpusKeys(report);
    const std::vector<CorpusKey> baseline =
        CorpusKeys(ParseFile(dir.Path("single.json")));
    EXPECT_FALSE(baseline.empty());
    EXPECT_TRUE(Covers(merged, baseline))
        << merged.size() << " merged keys vs " << baseline.size();
}

// The crash drill: SIGKILL the first shard to stream a job result,
// provably mid-batch. The run must still complete as a degraded report with the
// victim's jobs requeued, stream a shard_death event, and recover the
// undisturbed corpus exactly.
TEST(ShardProcess, ChaosKillOneRecoversTheUndisturbedCorpus)
{
    TemporaryDir dir;
    ASSERT_TRUE(dir.ok());
    const CliRun run = RunCoordinator(
        dir, "chaos",
        {"--workers", "3", "--chaos", "kill-one", "--max-runs", "400",
         "--report", dir.Path("chaos.json"),
         "--stats-out=" + dir.Path("chaos_stats.ndjson")});
    ASSERT_EQ(run.exit_code, 0) << run.err;
    EXPECT_NE(run.err.find("chaos kill-one: SIGKILL shard"),
              std::string::npos)
        << run.err;

    const JsonValue report = ParseFile(dir.Path("chaos.json"));
    ExpectReportConsistent(report, 3);
    bool degraded = false;
    EXPECT_TRUE(report.GetBool("degraded", &degraded));
    EXPECT_TRUE(degraded);
    const uint64_t deaths = U64(At(report, {"fault"}), "deaths");
    EXPECT_GE(deaths, 1u);
    EXPECT_GE(U64(At(report, {"fault"}), "jobs_requeued"), 1u)
        << "victim killed too late to leave jobs to requeue";
    bool death_recorded = false;
    for (const JsonValue& shard : At(report, {"shards"}).items) {
        std::string cause;
        death_recorded = death_recorded ||
                         (shard.GetString("death_cause", &cause) &&
                          !cause.empty());
    }
    EXPECT_TRUE(death_recorded);
    ExpectStatsStream(dir.Path("chaos_stats.ndjson"), 1,
                      std::max<uint64_t>(deaths, 1));

    const CliRun single = RunCoordinator(
        dir, "single",
        {"--workers", "1", "--max-runs", "400", "--report",
         dir.Path("single.json")});
    ASSERT_EQ(single.exit_code, 0) << single.err;
    const std::vector<CorpusKey> baseline =
        CorpusKeys(ParseFile(dir.Path("single.json")));
    EXPECT_FALSE(baseline.empty());
    EXPECT_EQ(CorpusKeys(report), baseline);
}

// Intra-session threads: the engine promises identical results at any
// width of two or more (deterministic round mode); a serial session
// equals round mode only when it runs to exhaustion, which the default
// --max-runs 25 batch does not. On a host with fewer cores both widths
// are granted the same width, so the pair stays comparable anywhere.
TEST(ShardProcess, EngineThreadsTwoAndFourAgree)
{
    TemporaryDir dir;
    ASSERT_TRUE(dir.ok());
    std::vector<CorpusKey> keys[2];
    obs::AttributionSnapshot tables[2];
    const char* widths[2] = {"2", "4"};
    for (int i = 0; i < 2; ++i) {
        const std::string tag = std::string("threads") + widths[i];
        const CliRun run = RunCoordinator(
            dir, tag,
            {"--workers", "1", "--engine-threads", widths[i], "--report",
             dir.Path(tag + ".json"),
             "--attr-out=" + dir.Path(tag + "_attr.json")});
        ASSERT_EQ(run.exit_code, 0) << run.err;
        keys[i] = CorpusKeys(ParseFile(dir.Path(tag + ".json")));
        tables[i] = ReadAttribution(dir.Path(tag + "_attr.json"));
    }
    EXPECT_FALSE(keys[0].empty());
    EXPECT_EQ(keys[0], keys[1])
        << keys[0].size() << " keys vs " << keys[1].size();
    // Every count column is charged on serial commit paths; solver
    // wall-nanos are real time and excluded.
    EXPECT_TRUE(obs::AttributionCountsEqual(tables[0], tables[1]));
}

}  // namespace
}  // namespace chef
