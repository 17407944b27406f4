/// \file
/// chef_shard: the distributed shard CLI.
///
/// Two modes over the shard/wire.h protocol:
///
///   chef_shard --worker
///     Serves one shard on stdin/stdout (spawned by a coordinator; the
///     protocol owns stdout, diagnostics go to stderr).
///
///   chef_shard --coordinator --workers N [options]
///     Spawns N `chef_shard --worker` subprocesses over pipes, fans the
///     batch out, and writes the merged JSON report. The files it writes
///     are checked end to end by tests/shard_process_test.cc, which runs
///     this binary as a black box.
///
/// Batch options (coordinator): repeat --job WORKLOAD[xCOUNT] to build
/// the batch (default: a small mixed py/lua batch), --max-runs,
/// --seed, --shard-workers (worker threads per shard), --budget
/// (service seconds per shard), --plateau (deprioritize a workload after
/// 1 zero-yield job, cancel its remaining jobs after 2), --no-gossip,
/// --report PATH.
///
/// Telemetry options: --trace-out PATH turns on phase tracing in every
/// worker and writes the merged Chrome trace-event JSON (load in
/// chrome://tracing or Perfetto); --metrics-interval MS sets the
/// cadence of live telemetry bundles on the workers' progress frames.
/// Both accept --flag=value and --flag value forms. The merged report
/// always carries a "telemetry" section with per-shard and
/// cluster-merged metrics snapshots.
///
/// Time-series options (coordinator; all force a 100 ms metrics
/// interval when none was set): --stats-out PATH streams one NDJSON
/// line per shard sample (windowed jobs/s, fingerprints/s, solver p95,
/// cluster totals) as progress frames deliver them; --curves-out PATH
/// writes the per-workload coverage_curves CSV (the Figure-9
/// reproduction); --series-out PATH dumps every cluster sample the
/// coordinator holds as JSON; --monitor renders an in-place ANSI
/// dashboard to stderr while the batch runs. Shard deaths additionally
/// appear on the --stats-out stream as {"event":"shard_death",...}
/// records.
///
/// Attribution options (coordinator): --attr-out PATH writes the
/// cluster per-location attribution table (solver seconds, steps,
/// forks, new fingerprints, ... charged to each high-level location)
/// as strict JSON; --flame-out PATH writes the same table as folded
/// stacks ("workload;0xroot;...;0xleaf value" lines) ready for
/// flamegraph.pl or speedscope. --monitor appends a "hot locations"
/// panel ranked by solver cost and by fingerprint yield per solver
/// second. Attribution is on by default in every worker; the tables
/// ride progress frames at the metrics cadence and always arrive with
/// the final result.
///
/// Fault-tolerance options (coordinator): --respawns N lets the
/// coordinator respawn each dead worker up to N times, --min-live-shards
/// K degrades the batch to a partial report below K live shards, and
/// --chaos kill-one SIGKILLs the first shard to stream a job result — a
/// built-in crash drill: the run must still complete, flagged "degraded"
/// with the dead shard's unfinished jobs requeued onto survivors, and
/// its merged corpus key-for-key equal to an undisturbed run's.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "obs/monitor.h"
#include "obs/timeseries.h"
#include "service/report.h"
#include "shard/coordinator.h"
#include "shard/transport.h"
#include "shard/wire.h"
#include "shard/worker.h"
#include "support/json.h"

namespace {

using chef::service::JobSpec;
using chef::shard::ShardCoordinator;
using chef::shard::ShardWorker;
using chef::shard::Transport;
using chef::shard::WorkerProcess;

struct CliOptions {
    bool worker = false;
    bool coordinator = false;
    size_t num_workers = 2;
    size_t shard_workers = 1;
    uint64_t seed = 2014;
    uint64_t max_runs = 25;
    double budget_seconds = 0.0;
    bool plateau = false;
    bool gossip = true;
    std::string report_path = "chef_shard_report.json";
    /// Non-empty enables worker phase tracing; the merged trace lands
    /// here as Chrome trace-event JSON.
    std::string trace_path;
    /// Live telemetry cadence in milliseconds; 0 = final snapshot only
    /// (unless a time-series sink below forces the 100 ms default).
    double metrics_interval_ms = 0.0;
    /// NDJSON stream of per-shard series samples.
    std::string stats_path;
    /// Per-workload coverage-curves CSV (Figure 9).
    std::string curves_path;
    /// Full cluster series dump as JSON.
    std::string series_path;
    /// Render the live ANSI dashboard to stderr.
    bool monitor = false;
    /// Cluster attribution table as strict JSON.
    std::string attr_path;
    /// Cluster attribution table as folded stacks (flamegraph input).
    std::string flame_path;
    /// Fault-injection drill: "" (off) or "kill-one" (SIGKILL the first
    /// shard that streams a job result — provably mid-batch).
    std::string chaos;
    /// Respawn budget per dead worker.
    size_t max_respawns = 0;
    /// Quorum below which the batch degrades instead of requeueing.
    size_t min_live_shards = 1;
    std::vector<std::pair<std::string, int>> job_specs;  // workload, count
};

void
Usage(const char* argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --worker\n"
        "       %s --coordinator [--workers N] [--job WORKLOAD[xCOUNT]]...\n"
        "           [--max-runs N] [--seed S] [--shard-workers K]\n"
        "           [--budget SECONDS] [--plateau] [--no-gossip]\n"
        "           [--report PATH] [--trace-out PATH]\n"
        "           [--metrics-interval MS] [--stats-out PATH]\n"
        "           [--curves-out PATH] [--series-out PATH]\n"
        "           [--attr-out PATH] [--flame-out PATH]\n"
        "           [--respawns N] [--min-live-shards K]\n"
        "           [--chaos kill-one]\n"
        "           [--monitor]\n",
        argv0, argv0);
}

bool
ParseArgs(int argc, char** argv, CliOptions* options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                return nullptr;
            }
            return argv[++i];
        };
        // --flag=value form (telemetry flags accept both forms; the
        // older batch flags keep their space form only).
        std::string inline_value;
        bool flag_error = false;
        const auto match = [&](const char* flag) {
            if (arg == flag) {
                const char* value = next(flag);
                if (value == nullptr) {
                    flag_error = true;
                    return false;
                }
                inline_value = value;
                return true;
            }
            const std::string prefix = std::string(flag) + "=";
            if (arg.compare(0, prefix.size(), prefix) == 0) {
                inline_value = arg.substr(prefix.size());
                return true;
            }
            return false;
        };
        if (match("--trace-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--trace-out requires a path\n");
                return false;
            }
            options->trace_path = inline_value;
            continue;
        }
        if (match("--metrics-interval")) {
            options->metrics_interval_ms = std::atof(inline_value.c_str());
            continue;
        }
        if (match("--stats-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--stats-out requires a path\n");
                return false;
            }
            options->stats_path = inline_value;
            continue;
        }
        if (match("--curves-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--curves-out requires a path\n");
                return false;
            }
            options->curves_path = inline_value;
            continue;
        }
        if (match("--series-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--series-out requires a path\n");
                return false;
            }
            options->series_path = inline_value;
            continue;
        }
        if (match("--attr-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--attr-out requires a path\n");
                return false;
            }
            options->attr_path = inline_value;
            continue;
        }
        if (match("--flame-out")) {
            if (inline_value.empty()) {
                std::fprintf(stderr, "--flame-out requires a path\n");
                return false;
            }
            options->flame_path = inline_value;
            continue;
        }
        if (match("--respawns")) {
            options->max_respawns = static_cast<size_t>(
                std::strtoull(inline_value.c_str(), nullptr, 10));
            continue;
        }
        if (match("--min-live-shards")) {
            options->min_live_shards = static_cast<size_t>(
                std::strtoull(inline_value.c_str(), nullptr, 10));
            continue;
        }
        if (match("--chaos")) {
            if (inline_value != "kill-one") {
                std::fprintf(stderr,
                             "--chaos supports only 'kill-one' (got "
                             "'%s')\n",
                             inline_value.c_str());
                return false;
            }
            options->chaos = inline_value;
            continue;
        }
        if (flag_error) {
            return false;
        }
        if (arg == "--worker") {
            options->worker = true;
        } else if (arg == "--coordinator") {
            options->coordinator = true;
        } else if (arg == "--workers") {
            const char* value = next("--workers");
            if (value == nullptr) {
                return false;
            }
            options->num_workers =
                static_cast<size_t>(std::strtoull(value, nullptr, 10));
        } else if (arg == "--shard-workers") {
            const char* value = next("--shard-workers");
            if (value == nullptr) {
                return false;
            }
            options->shard_workers =
                static_cast<size_t>(std::strtoull(value, nullptr, 10));
        } else if (arg == "--seed") {
            const char* value = next("--seed");
            if (value == nullptr) {
                return false;
            }
            options->seed = std::strtoull(value, nullptr, 0);
        } else if (arg == "--max-runs") {
            const char* value = next("--max-runs");
            if (value == nullptr) {
                return false;
            }
            options->max_runs = std::strtoull(value, nullptr, 10);
        } else if (arg == "--budget") {
            const char* value = next("--budget");
            if (value == nullptr) {
                return false;
            }
            options->budget_seconds = std::atof(value);
        } else if (arg == "--monitor") {
            options->monitor = true;
        } else if (arg == "--plateau") {
            options->plateau = true;
        } else if (arg == "--no-gossip") {
            options->gossip = false;
        } else if (arg == "--report") {
            const char* value = next("--report");
            if (value == nullptr) {
                return false;
            }
            options->report_path = value;
        } else if (arg == "--job") {
            const char* value = next("--job");
            if (value == nullptr) {
                return false;
            }
            std::string workload = value;
            int count = 1;
            const size_t x = workload.rfind('x');
            if (x != std::string::npos && x + 1 < workload.size() &&
                workload.find('/') < x) {
                const int parsed = std::atoi(workload.c_str() + x + 1);
                if (parsed > 0) {
                    count = parsed;
                    workload.resize(x);
                }
            }
            options->job_specs.emplace_back(workload, count);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            return false;
        }
    }
    if (options->worker == options->coordinator) {
        Usage(argv[0]);
        return false;
    }
    return true;
}

std::vector<JobSpec>
BuildBatch(const CliOptions& options)
{
    std::vector<std::pair<std::string, int>> specs = options.job_specs;
    if (specs.empty()) {
        // A small duplicate-skewed mixed batch: enough overlap for the
        // gossip/dedup machinery to have something to do.
        specs = {{"py/argparse", 3},
                 {"py/simplejson", 1},
                 {"lua/cliargs", 1},
                 {"lua/haml", 1}};
    }
    std::vector<JobSpec> jobs;
    int copy = 0;
    for (const auto& [workload, count] : specs) {
        for (int i = 0; i < count; ++i) {
            JobSpec spec;
            spec.workload = workload;
            spec.label = workload + "#" + std::to_string(i);
            spec.seed = static_cast<uint64_t>(++copy);
            spec.options.max_runs = options.max_runs;
            spec.options.max_seconds = 1e9;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

ShardCoordinator::Options
CoordinatorOptions(const CliOptions& options)
{
    ShardCoordinator::Options coordinator;
    coordinator.service.seed = options.seed;
    coordinator.service.num_workers = options.shard_workers;
    coordinator.service.max_total_seconds = options.budget_seconds;
    coordinator.service.plateau = options.plateau;
    coordinator.gossip = options.gossip;
    coordinator.service.tracing = !options.trace_path.empty();
    coordinator.service.metrics_interval_seconds =
        options.metrics_interval_ms / 1000.0;
    // The time-series sinks are useless without samples; force the
    // 100 ms default cadence when none was requested explicitly.
    const bool wants_series = options.monitor ||
                              !options.stats_path.empty() ||
                              !options.curves_path.empty() ||
                              !options.series_path.empty();
    if (wants_series && coordinator.service.metrics_interval_seconds <= 0.0) {
        coordinator.service.metrics_interval_seconds = 0.1;
    }
    coordinator.max_respawns = options.max_respawns;
    coordinator.min_live_shards = options.min_live_shards;
    return coordinator;
}

bool
WriteFileOrComplain(const std::string& path, const std::string& contents)
{
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr ||
        std::fwrite(contents.data(), 1, contents.size(), file) !=
            contents.size() ||
        std::fclose(file) != 0) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

std::string
SelfBinaryPath(const char* argv0)
{
    char buffer[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
    if (n > 0) {
        buffer[n] = '\0';
        return buffer;
    }
    return argv0;
}

/// ShardSupervisor over the coordinator's pipe-worker subprocesses:
/// waitpid(WNOHANG) liveness probes and fork/exec respawns that replace
/// the dead WorkerProcess slot in place.
class PipeShardSupervisor : public chef::shard::ShardSupervisor
{
  public:
    PipeShardSupervisor(std::string binary,
                        std::vector<WorkerProcess>* processes)
        : binary_(std::move(binary)), processes_(processes)
    {
    }

    bool Probe(size_t shard_id, std::string* cause) override
    {
        if (shard_id >= processes_->size()) {
            return true;
        }
        WorkerProcess& process = (*processes_)[shard_id];
        if (process.pid < 0) {
            if (cause != nullptr) {
                *cause = "process gone";
            }
            return false;
        }
        if (!chef::shard::ProbeWorkerProcess(process.pid, cause)) {
            process.pid = -1;  // Reaped by the probe; don't wait again.
            return false;
        }
        return true;
    }

    Transport* Respawn(size_t shard_id) override
    {
        if (shard_id >= processes_->size()) {
            return nullptr;
        }
        WorkerProcess& slot = (*processes_)[shard_id];
        if (slot.pid >= 0) {
            // Dead to the protocol but the process survives (hung, or
            // spoke garbage): reap it before replacing the slot.
            ::kill(slot.pid, SIGKILL);
            chef::shard::WaitWorkerProcess(slot.pid);
            slot.pid = -1;
        }
        WorkerProcess fresh;
        std::string error;
        if (!chef::shard::SpawnWorkerProcess(binary_, {"--worker"},
                                             &fresh, &error)) {
            std::fprintf(stderr, "respawn shard %zu: %s\n", shard_id,
                         error.c_str());
            return nullptr;
        }
        slot = std::move(fresh);
        return slot.transport.get();
    }

  private:
    std::string binary_;
    std::vector<WorkerProcess>* processes_;
};

int
RunWorker()
{
    // The protocol owns stdin/stdout; stderr remains for diagnostics.
    std::unique_ptr<Transport> transport = chef::shard::CreateFdTransport(
        STDIN_FILENO, STDOUT_FILENO, /*owns_fds=*/false);
    ShardWorker worker(ShardWorker::Options{}, transport.get());
    return worker.Serve() ? 0 : 1;
}

int
RunCoordinator(const CliOptions& options, const char* argv0)
{
    const std::vector<JobSpec> jobs = BuildBatch(options);
    const std::string binary = SelfBinaryPath(argv0);

    std::vector<WorkerProcess> processes;
    std::vector<Transport*> transports;
    for (size_t i = 0; i < options.num_workers; ++i) {
        WorkerProcess process;
        std::string error;
        if (!chef::shard::SpawnWorkerProcess(binary, {"--worker"},
                                             &process, &error)) {
            std::fprintf(stderr, "spawn worker %zu: %s\n", i,
                         error.c_str());
            return 1;
        }
        processes.push_back(std::move(process));
    }
    for (WorkerProcess& process : processes) {
        transports.push_back(process.transport.get());
    }

    ShardCoordinator::Options coordinator_options =
        CoordinatorOptions(options);
    // Pipe workers always get the process-level supervisor: waitpid
    // probes catch corpses whose pipes still read clean, and --respawns
    // turns on revival through the same object.
    PipeShardSupervisor supervisor(binary, &processes);
    coordinator_options.supervisor = &supervisor;
    const double stats_window = std::max(
        2.0, 4.0 * coordinator_options.service.metrics_interval_seconds);

    // Live time-series sinks, driven from the coordinator's Run thread
    // via on_series_update: an NDJSON line per fresh sample, and a
    // throttled in-place dashboard frame.
    std::FILE* stats_file = nullptr;
    if (!options.stats_path.empty()) {
        stats_file = std::fopen(options.stats_path.c_str(), "w");
        if (stats_file == nullptr) {
            std::fprintf(stderr, "failed to open %s\n",
                         options.stats_path.c_str());
            return 1;
        }
    }
    ShardCoordinator* running = nullptr;
    std::map<std::string, uint64_t> streamed;  // source -> last index
    size_t ndjson_lines = 0;
    const auto run_start = std::chrono::steady_clock::now();

    // Shard deaths: one stderr obituary each, plus an NDJSON event
    // record on the stats stream (consumers skip records carrying an
    // "event" key when computing rates).
    coordinator_options.on_shard_death = [&](size_t shard,
                                             const std::string& cause) {
        std::fprintf(stderr, "chef_shard: shard %zu died: %s\n", shard,
                     cause.c_str());
        if (stats_file != nullptr) {
            chef::support::JsonWriter json;
            json.BeginObject();
            json.Key("event"), json.Value("shard_death");
            json.Key("shard"), json.Value(shard);
            json.Key("cause"), json.Value(cause);
            json.Key("t_seconds"),
                json.Value(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - run_start)
                               .count());
            json.EndObject();
            std::string line = json.Take();
            line += '\n';
            std::fwrite(line.data(), 1, line.size(), stats_file);
            std::fflush(stats_file);
        }
    };

    // The kill-one drill: SIGKILL the first shard to stream a job
    // result. Its first result arrives while the rest of its partition
    // is still queued or running, so the victim is provably mid-batch —
    // the hard case, where requeue must skip its streamed jobs and the
    // merged corpus must already hold their discoveries.
    bool chaos_killed = false;
    if (options.chaos == "kill-one") {
        coordinator_options.on_results_streamed = [&](size_t shard) {
            if (chaos_killed || shard >= processes.size() ||
                processes[shard].pid < 0) {
                return;
            }
            chaos_killed = true;
            std::fprintf(stderr,
                         "chef_shard: chaos kill-one: SIGKILL shard %zu "
                         "(pid %d) on its first streamed result\n",
                         shard, static_cast<int>(processes[shard].pid));
            ::kill(processes[shard].pid, SIGKILL);
        };
    }
    auto last_frame = std::chrono::steady_clock::now();
    bool first_frame = true;
    coordinator_options.on_series_update = [&](size_t shard_id) {
        const chef::obs::ClusterSeries& series = running->cluster_series();
        const std::string source = "shard" + std::to_string(shard_id);
        const std::vector<chef::obs::SeriesSample>* samples =
            series.SeriesFor(source);
        if (samples != nullptr) {
            uint64_t& rendered = streamed[source];
            for (const chef::obs::SeriesSample& sample : *samples) {
                if (sample.index <= rendered) {
                    continue;
                }
                rendered = sample.index;
                ++ndjson_lines;
                if (stats_file != nullptr) {
                    const std::string line =
                        chef::obs::RenderSeriesSampleNdjson(
                            series, source, sample, stats_window);
                    std::fwrite(line.data(), 1, line.size(), stats_file);
                }
            }
            if (stats_file != nullptr) {
                std::fflush(stats_file);
            }
        }
        if (options.monitor) {
            const auto now = std::chrono::steady_clock::now();
            if (first_frame ||
                now - last_frame >= std::chrono::milliseconds(250)) {
                first_frame = false;
                last_frame = now;
                const chef::obs::AttributionSnapshot attribution =
                    running->ClusterAttribution();
                const std::string frame = chef::obs::RenderMonitorFrame(
                    series, stats_window, &attribution);
                // Home, repaint, then clear from the cursor to the end
                // of the screen: clearing *after* the frame (ESC[0J)
                // instead of before it (ESC[2J) erases exactly the rows
                // a shrinking panel no longer covers, without leaving
                // stale lines below the new frame.
                std::fprintf(stderr, "\x1b[H%s\x1b[0J", frame.c_str());
            }
        }
    };

    ShardCoordinator coordinator(coordinator_options);
    running = &coordinator;
    std::string error;
    const bool ok = coordinator.Run(jobs, transports, &error);
    for (WorkerProcess& process : processes) {
        process.transport->Close();
        if (process.pid >= 0) {  // Dead shards were reaped by the probe.
            chef::shard::WaitWorkerProcess(process.pid);
        }
    }
    if (stats_file != nullptr) {
        std::fclose(stats_file);
    }
    if (options.monitor) {
        // One final frame from the complete series, then drop out of the
        // in-place redraw so subsequent stderr output scrolls normally.
        // Same clear-after-repaint as the live path, so a final frame
        // shorter than the last live one leaves no stale rows behind.
        const chef::obs::AttributionSnapshot attribution =
            coordinator.ClusterAttribution();
        const std::string frame = chef::obs::RenderMonitorFrame(
            coordinator.cluster_series(), stats_window, &attribution);
        std::fprintf(stderr, "\x1b[H%s\x1b[0J\n", frame.c_str());
    }
    if (!ok) {
        std::fprintf(stderr, "coordinator: %s\n", error.c_str());
        return 1;
    }

    if (!WriteFileOrComplain(options.report_path,
                             coordinator.RenderMergedReport())) {
        return 1;
    }
    if (!options.trace_path.empty()) {
        // Streamed span-by-span rather than rendered whole in memory.
        std::string trace_error;
        if (!coordinator.WriteTraceFile(options.trace_path, &trace_error)) {
            std::fprintf(stderr, "%s\n", trace_error.c_str());
            return 1;
        }
    }
    if (!options.curves_path.empty() &&
        !WriteFileOrComplain(options.curves_path,
                             chef::obs::RenderCoverageCurvesCsv(
                                 coordinator.cluster_series()))) {
        return 1;
    }
    if (!options.series_path.empty() &&
        !WriteFileOrComplain(
            options.series_path,
            chef::obs::RenderClusterSeriesJson(
                coordinator.cluster_series()))) {
        return 1;
    }
    const chef::obs::AttributionSnapshot cluster_attribution =
        coordinator.ClusterAttribution();
    if (!options.attr_path.empty()) {
        chef::support::JsonWriter json;
        chef::obs::WriteAttributionSnapshot(json, cluster_attribution);
        if (!WriteFileOrComplain(options.attr_path, json.Take())) {
            return 1;
        }
    }
    if (!options.flame_path.empty() &&
        !WriteFileOrComplain(
            options.flame_path,
            chef::obs::RenderAttributionFoldedStacks(cluster_attribution))) {
        return 1;
    }

    const ShardCoordinator::CrossShardStats& cross =
        coordinator.cross_shard();
    std::printf("chef_shard: %zu jobs over %zu worker processes\n",
                jobs.size(), options.num_workers);
    std::printf("  merged corpus: %zu entries (%llu cross-shard merge "
                "duplicates)\n",
                coordinator.corpus().size(),
                static_cast<unsigned long long>(cross.merge_duplicates));
    std::printf("  gossip: %llu messages, %llu fingerprints, %llu local "
                "rediscoveries suppressed, %llu jobs suppressed\n",
                static_cast<unsigned long long>(cross.gossip_messages),
                static_cast<unsigned long long>(
                    cross.fingerprints_gossiped),
                static_cast<unsigned long long>(
                    cross.remote_duplicate_hits),
                static_cast<unsigned long long>(cross.jobs_suppressed));
    if (coordinator.degraded()) {
        const ShardCoordinator::FaultStats& fault = coordinator.fault();
        std::printf("  fault: DEGRADED — %llu death(s), %llu jobs "
                    "requeued, %llu respawn(s)\n",
                    static_cast<unsigned long long>(fault.deaths),
                    static_cast<unsigned long long>(fault.jobs_requeued),
                    static_cast<unsigned long long>(fault.respawns));
    }
    std::printf("  report: %s\n", options.report_path.c_str());
    if (!options.trace_path.empty()) {
        std::printf("  trace: %s (%zu events)\n",
                    options.trace_path.c_str(),
                    coordinator.trace_events().size());
    }
    if (!options.stats_path.empty()) {
        std::printf("  stats: %s (%zu NDJSON samples)\n",
                    options.stats_path.c_str(), ndjson_lines);
    }
    if (!options.curves_path.empty()) {
        std::printf("  curves: %s\n", options.curves_path.c_str());
    }
    if (!options.series_path.empty()) {
        std::printf("  series: %s (%zu samples over %zu sources)\n",
                    options.series_path.c_str(),
                    coordinator.cluster_series().total_samples(),
                    coordinator.cluster_series().Sources().size());
    }
    if (!options.attr_path.empty() || !options.flame_path.empty()) {
        size_t locations = 0;
        for (const auto& [workload, rows] :
             cluster_attribution.workloads) {
            (void)workload;
            locations += rows.size();
        }
        if (!options.attr_path.empty()) {
            std::printf("  attribution: %s (%zu locations, %.3f solver "
                        "seconds attributed)\n",
                        options.attr_path.c_str(), locations,
                        cluster_attribution.SolverSecondsTotal());
        }
        if (!options.flame_path.empty()) {
            std::printf("  flame: %s\n", options.flame_path.c_str());
        }
    }

    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    CliOptions options;
    if (!ParseArgs(argc, argv, &options)) {
        return 2;
    }
    if (options.worker) {
        return RunWorker();
    }
    return RunCoordinator(options, argv[0]);
}
