/// \file
/// chef_perfbench: one repetition of the fixed-work benchmark (see
/// ../README.md; run.py repeats it and aggregates).
///
///   chef_perfbench --workload <solver-bound|interp-bound|cluster-batch>
///                  --seed <n> [--trace 0|1] [--replay 0|1]
///                  [--out-dir <dir>]
///
/// A repetition runs a fixed batch of serial symbolic-test sessions (or
/// one sharded batch of jobs), each bounded by max_runs or by exhaustion
/// of its path space, never by a clock. Set-up is first sampled on its
/// own kSetupSamples times. With --replay 1 the relevant test cases
/// are then replayed on the vanilla interpreter (outside the timed
/// window) to check their outcomes and measure line coverage. With
/// --trace 1 the phase spans are on and the repetition also reports the
/// per-layer ledger and writes its Chrome trace to --out-dir. The last
/// stdout line is one JSON record: work counts, problems, set-up samples
/// and metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chef/engine.h"
#include "counting_transport.h"
#include "ledger.h"
#include "shard/coordinator.h"
#include "shard/worker.h"
#include "support/diagnostics.h"
#include "support/json.h"
#include "workloads/packages.h"
#include "workloads/registry.h"

namespace chef::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// max_runs for sessions meant to exhaust their path space, and
/// max_seconds for every session: far above any real run, so neither
/// ever ends a session.
constexpr uint64_t kExhaust = 1'000'000'000;
constexpr double kNoDeadline = 1e9;
/// Set-up-only samples taken before each repetition.
constexpr int kSetupSamples = 10;

double
Since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
Ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

uint64_t
SplitMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Session seeds derive from the run seed alone.
uint64_t
DeriveSeed(uint64_t run_seed, uint64_t index)
{
    return SplitMix64(SplitMix64(run_seed) ^ index) | 1;
}

// ---------------------------------------------------------------------------
// The RunFn wrapper: every workload runs through a registry entry that
// times guest compilation and each guest run.
// ---------------------------------------------------------------------------

struct InterpProbe {
    std::atomic<uint64_t> run_ns{0};
    std::atomic<uint64_t> compile_ns{0};
    /// Receives "bench/run" spans while a traced repetition runs.
    std::atomic<obs::PhaseTracer*> tracer{nullptr};

    void Reset(obs::PhaseTracer* span_tracer)
    {
        run_ns = 0;
        compile_ns = 0;
        tracer = span_tracer;
    }
};

InterpProbe&
Probe()
{
    static InterpProbe probe;
    return probe;
}

uint64_t
NanosSince(Clock::time_point start)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
}

std::string
ProbedId(const std::string& id)
{
    return "perfbench/" + id;
}

/// Registers "perfbench/<id>" for every built-in workload. Must run
/// before any exploration (the registry is not thread-safe).
void
RegisterProbedWorkloads()
{
    for (const std::string& id : workloads::WorkloadIds()) {
        const workloads::WorkloadInfo* base = workloads::FindWorkload(id);
        workloads::WorkloadInfo info = *base;
        info.id = ProbedId(id);
        auto make_base = base->make_run;
        info.make_run = [make_base](const interp::InterpBuildOptions& build) {
            const auto start = Clock::now();
            Engine::RunFn inner = make_base(build);
            Probe().compile_ns += NanosSince(start);
            return Engine::RunFn(
                [inner](lowlevel::LowLevelRuntime& runtime) {
                    obs::ScopedSpan span(Probe().tracer.load(), "bench/run",
                                         "interp");
                    const auto run_start = Clock::now();
                    Engine::GuestOutcome outcome = inner(runtime);
                    Probe().run_ns += NanosSince(run_start);
                    return outcome;
                });
        };
        if (!workloads::RegisterWorkload(std::move(info))) {
            Fatal("cannot register probed workload for " + id);
        }
    }
}

// ---------------------------------------------------------------------------
// Workload plans.
// ---------------------------------------------------------------------------

struct SessionPlan {
    std::string workload;  ///< Built-in id, e.g. "py/xlrd".
    uint64_t max_runs = kExhaust;
    StrategyKind strategy = StrategyKind::kCupaPath;
};

struct WorkloadPlan {
    std::string name;
    /// Serial workloads: the sessions of one repetition, in order.
    std::vector<SessionPlan> sessions;
    /// cluster-batch: packages x seeds_per_package jobs over shards.
    std::vector<std::string> packages;
    size_t seeds_per_package = 0;
    uint64_t job_max_runs = 0;
    size_t shards = 0;

    bool cluster() const { return shards > 0; }
};

void
AddSessions(WorkloadPlan* plan, const std::string& workload, size_t count,
            uint64_t max_runs,
            StrategyKind strategy = StrategyKind::kCupaPath)
{
    for (size_t i = 0; i < count; ++i) {
        plan->sessions.push_back({workload, max_runs, strategy});
    }
}

bool
MakePlan(const std::string& name, WorkloadPlan* plan)
{
    plan->name = name;
    if (name == "solver-bound") {
        // xlrd exhausts its 58 runs; nearly every selection is a SAT call.
        AddSessions(plan, "py/xlrd", 4, kExhaust);
        AddSessions(plan, "lua/moonscript", 2, 100);
    } else if (name == "interp-bound") {
        AddSessions(plan, "py/unicodecsv", 3, kExhaust);
        AddSessions(plan, "lua/haml", 3, kExhaust);
        // The Table-3 hang. Breadth-first order reaches it with the same
        // work at every seed; CUPA's hang count (and so its cost) swings
        // with the seed.
        AddSessions(plan, "lua/JSON", 1, 150, StrategyKind::kBfs);
    } else if (name == "cluster-batch") {
        plan->packages = {"py/argparse", "py/ConfigParser", "py/HTMLParser",
                          "py/simplejson", "py/unicodecsv", "lua/cliargs",
                          "lua/haml",      "lua/markdown"};
        // Short repetitions: more of them fit in a run, and the fastest
        // of a fixed number is steadier than one long batch.
        plan->seeds_per_package = 12;
        plan->job_max_runs = 100;
        plan->shards = 2;
    } else {
        return false;
    }
    return true;
}

/// Distinct guest packages a plan explores.
std::vector<std::string>
PlanPackages(const WorkloadPlan& plan)
{
    if (plan.cluster()) {
        return plan.packages;
    }
    std::vector<std::string> packages;
    for (const SessionPlan& session : plan.sessions) {
        if (std::find(packages.begin(), packages.end(), session.workload) ==
            packages.end()) {
            packages.push_back(session.workload);
        }
    }
    return packages;
}

// ---------------------------------------------------------------------------
// One repetition.
// ---------------------------------------------------------------------------

/// Work counts of one repetition. All must repeat exactly across the
/// repetitions of a seed; the first group is also recorded per workload
/// (expected_counts.json).
struct Counts {
    uint64_t sessions = 0;
    uint64_t hl_paths = 0;
    uint64_t ll_paths = 0;
    uint64_t hang_runs = 0;
    uint64_t steps = 0;
    uint64_t queries = 0;
    uint64_t sat_calls = 0;
    uint64_t states_registered = 0;
    uint64_t corpus_size = 0;
    uint64_t fingerprint_digest = 0;
    // Deterministic too, but not part of the recorded guard.
    uint64_t slices_solved = 0;
    uint64_t cache_hits = 0;
    uint64_t model_reuse_hits = 0;
    uint64_t clauses_loaded = 0;
    uint64_t infeasible_states = 0;
    uint64_t tree_nodes = 0;
    uint64_t hl_tree_nodes = 0;
    std::map<std::string, uint64_t> hangs_by_package;
};

/// A relevant, non-hang test case to replay.
struct ReplayCase {
    std::string workload;  ///< Built-in id.
    solver::Assignment inputs;
    std::string kind;
    std::string detail;
};

struct RepResult {
    bool traced = false;
    double setup_s = 0.0;
    double explore_s = 0.0;
    double compile_s = 0.0;
    double run_s = 0.0;
    double solve_s = 0.0;
    /// Time inside sessions (serial) or jobs (summed over shards).
    double busy_s = 0.0;
    std::vector<double> job_ms;
    Counts counts;
    size_t failed = 0;
    std::vector<std::string> problems;
    std::vector<ReplayCase> replays;
    std::vector<obs::TraceEvent> trace;
    // cluster-batch only.
    WireTally wire;
    double report_render_s = 0.0;
    size_t report_bytes = 0;
    uint64_t remote_duplicate_hits = 0;
};

/// Order-independent digest of (workload, fingerprint) keys.
uint64_t
DigestKeys(std::vector<std::pair<std::string, uint64_t>> keys)
{
    std::sort(keys.begin(), keys.end());
    uint64_t digest = 0x6a09e667f3bcc908ULL;
    for (const auto& key : keys) {
        for (const char c : key.first) {
            digest = SplitMix64(digest ^ static_cast<uint8_t>(c));
        }
        digest = SplitMix64(digest ^ key.second);
    }
    return digest;
}

std::string
BaseId(const std::string& probed_id)
{
    const std::string prefix = ProbedId("");
    return probed_id.compare(0, prefix.size(), prefix) == 0
               ? probed_id.substr(prefix.size())
               : probed_id;
}

/// The set-up of a serial repetition: every guest compiled once and
/// every session's engine built.
struct SerialSessions {
    std::map<std::string, Engine::RunFn> run_fns;
    std::vector<std::unique_ptr<Engine>> engines;
};

SerialSessions
SetUpSessions(const WorkloadPlan& plan, uint64_t run_seed,
              obs::PhaseTracer* tracer)
{
    SerialSessions setup;
    for (size_t i = 0; i < plan.sessions.size(); ++i) {
        const SessionPlan& session = plan.sessions[i];
        if (setup.run_fns.count(session.workload) == 0) {
            setup.run_fns[session.workload] =
                workloads::FindWorkload(ProbedId(session.workload))
                    ->make_run(interp::InterpBuildOptions::FullyOptimized());
        }
        Engine::Options options;
        options.strategy = session.strategy;
        options.seed = DeriveSeed(run_seed, i);
        options.max_runs = session.max_runs;
        options.max_seconds = kNoDeadline;
        options.obs.tracer = tracer;
        setup.engines.push_back(std::make_unique<Engine>(options));
    }
    return setup;
}

RepResult
RunSerialRep(const WorkloadPlan& plan, uint64_t run_seed,
             obs::PhaseTracer* tracer, bool keep_replays)
{
    RepResult rep;
    rep.traced = tracer != nullptr;
    Probe().Reset(tracer);

    const auto setup_start = Clock::now();
    SerialSessions setup = SetUpSessions(plan, run_seed, tracer);
    rep.setup_s = Since(setup_start);
    std::map<std::string, Engine::RunFn>& run_fns = setup.run_fns;
    std::vector<std::unique_ptr<Engine>>& engines = setup.engines;

    std::vector<std::pair<std::string, uint64_t>> fingerprints;
    const uint64_t explore_start_us = tracer ? tracer->NowMicros() : 0;
    const auto explore_start = Clock::now();
    for (size_t i = 0; i < plan.sessions.size(); ++i) {
        const SessionPlan& session = plan.sessions[i];
        Engine& engine = *engines[i];
        const auto session_start = Clock::now();
        const std::vector<TestCase> tests =
            engine.Explore(run_fns[session.workload]);
        const double session_s = Since(session_start);
        rep.busy_s += session_s;
        rep.job_ms.push_back(session_s * 1e3);

        const EngineStats& stats = engine.stats();
        const solver::SolverStats solver = engine.constraint_solver().stats();
        Counts& c = rep.counts;
        ++c.sessions;
        c.hl_paths += stats.hl_paths;
        c.ll_paths += stats.ll_paths;
        c.hang_runs += stats.hangs;
        c.hangs_by_package[session.workload] += stats.hangs;
        c.queries += solver.queries;
        c.sat_calls += solver.sat_calls;
        c.states_registered += stats.states_registered;
        c.slices_solved += solver.slices_solved;
        c.cache_hits += solver.cache_hits;
        c.model_reuse_hits += solver.model_reuse_hits;
        c.clauses_loaded += solver.clauses_loaded;
        c.infeasible_states += stats.infeasible_states;
        c.tree_nodes += engine.tree().num_nodes();
        c.hl_tree_nodes += engine.tracker().tree().num_nodes();
        rep.solve_s += solver.solve_seconds;

        const bool exhausted_as_planned =
            session.max_runs == kExhaust ? stats.ll_paths < session.max_runs
                                         : stats.ll_paths == session.max_runs;
        if (stats.stopped || stats.solver_failures > 0 ||
            solver.unknown_results > 0 || !exhausted_as_planned) {
            ++rep.failed;
            rep.problems.push_back(
                session.workload + " session " + std::to_string(i) +
                " did not do its fixed work (stopped=" +
                std::to_string(stats.stopped) +
                ", ll_paths=" + std::to_string(stats.ll_paths) + ")");
        }
        for (const TestCase& test : tests) {
            c.steps += test.ll_steps;
            if (!test.new_hl_path) {
                continue;
            }
            fingerprints.emplace_back(session.workload,
                                      test.hl_path_fingerprint);
            if (keep_replays && test.outcome_kind != "hang") {
                rep.replays.push_back({session.workload, test.inputs,
                                       test.outcome_kind,
                                       test.outcome_detail});
            }
        }
        engines[i].reset();
    }
    rep.explore_s = Since(explore_start);
    if (tracer != nullptr) {
        tracer->RecordSpan("bench/explore", "chef", explore_start_us,
                           tracer->NowMicros() - explore_start_us);
        rep.trace = tracer->TakeEvents();
    }

    rep.counts.corpus_size =
        std::set<std::pair<std::string, uint64_t>>(fingerprints.begin(),
                                                   fingerprints.end())
            .size();
    rep.counts.fingerprint_digest = DigestKeys(std::move(fingerprints));
    rep.compile_s = static_cast<double>(Probe().compile_ns.load()) * 1e-9;
    rep.run_s = static_cast<double>(Probe().run_ns.load()) * 1e-9;
    Probe().Reset(nullptr);
    return rep;
}

/// The in-process cluster: shard workers on their own threads behind
/// loopback pairs, coordinator ends wrapped in counting transports.
/// The destructor closes every link and joins the workers.
class LoopbackCluster
{
  public:
    explicit LoopbackCluster(size_t shards)
    {
        for (size_t i = 0; i < shards; ++i) {
            pairs_.push_back(shard::CreateLoopbackPair());
            counting_.push_back(std::make_unique<CountingTransport>(
                pairs_.back().a.get(), &tally_));
        }
        for (size_t i = 0; i < shards; ++i) {
            shard::Transport* endpoint = pairs_[i].b.get();
            workers_.emplace_back([endpoint] {
                shard::ShardWorker worker(shard::ShardWorker::Options{},
                                          endpoint);
                worker.Serve();
            });
        }
    }

    LoopbackCluster(const LoopbackCluster&) = delete;
    LoopbackCluster& operator=(const LoopbackCluster&) = delete;

    ~LoopbackCluster()
    {
        for (shard::LoopbackPair& pair : pairs_) {
            pair.a->Close();
        }
        for (std::thread& worker : workers_) {
            worker.join();
        }
    }

    /// Waits for every worker's hello.
    bool AwaitHellos()
    {
        for (auto& transport : counting_) {
            if (!transport->AwaitFirstMessage(/*timeout_ms=*/30'000)) {
                return false;
            }
        }
        return true;
    }

    std::vector<shard::Transport*> transports() const
    {
        std::vector<shard::Transport*> out;
        for (const auto& transport : counting_) {
            out.push_back(transport.get());
        }
        return out;
    }

    WireTally& tally() { return tally_; }

  private:
    WireTally tally_;
    std::vector<shard::LoopbackPair> pairs_;
    std::vector<std::unique_ptr<CountingTransport>> counting_;
    std::vector<std::thread> workers_;
};

shard::ShardCoordinator::Options
CoordinatorOptions(uint64_t run_seed, bool traced)
{
    shard::ShardCoordinator::Options options;
    options.service.seed = DeriveSeed(run_seed, 0xc1);
    options.service.num_workers = 1;
    options.service.tracing = traced;
    return options;
}

std::vector<service::JobSpec>
ClusterJobs(const WorkloadPlan& plan)
{
    // Rotate the package order per seed round so the round-robin
    // partition gives each shard every package.
    std::vector<service::JobSpec> jobs;
    const size_t packages = plan.packages.size();
    for (size_t round = 0; round < plan.seeds_per_package; ++round) {
        for (size_t p = 0; p < packages; ++p) {
            service::JobSpec spec;
            spec.workload = ProbedId(plan.packages[(p + round) % packages]);
            spec.options.max_runs = plan.job_max_runs;
            spec.options.max_seconds = kNoDeadline;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

RepResult
RunClusterRep(const WorkloadPlan& plan, uint64_t run_seed,
              obs::PhaseTracer* tracer, bool keep_replays)
{
    RepResult rep;
    rep.traced = tracer != nullptr;
    Probe().Reset(tracer);
    const std::vector<service::JobSpec> jobs = ClusterJobs(plan);

    const auto setup_start = Clock::now();
    LoopbackCluster cluster(plan.shards);
    const bool greeted = cluster.AwaitHellos();
    shard::ShardCoordinator coordinator(
        CoordinatorOptions(run_seed, rep.traced));
    rep.setup_s = Since(setup_start);
    if (!greeted) {
        rep.failed = jobs.size();
        rep.problems.push_back("a shard sent no hello");
        return rep;
    }

    std::string error;
    const uint64_t explore_start_us = tracer ? tracer->NowMicros() : 0;
    const auto explore_start = Clock::now();
    const bool ran = coordinator.Run(jobs, cluster.transports(), &error);
    rep.explore_s = Since(explore_start);
    cluster.tally().FinishBatch();
    if (tracer != nullptr) {
        tracer->RecordSpan("bench/cluster", "shard", explore_start_us,
                           tracer->NowMicros() - explore_start_us);
    }
    if (!ran) {
        rep.failed = jobs.size();
        rep.problems.push_back("coordinator failed: " + error);
        return rep;
    }

    const auto render_start = Clock::now();
    const std::string report = coordinator.RenderMergedReport();
    rep.report_render_s = Since(render_start);
    rep.report_bytes = report.size();
    rep.wire = cluster.tally();

    // Job results on the wire carry no states_registered or step count;
    // those stay 0 for the cluster.
    Counts& c = rep.counts;
    for (const service::JobResult& job : coordinator.results()) {
        const EngineStats& stats = job.engine_stats;
        ++c.sessions;
        c.hl_paths += stats.hl_paths;
        c.ll_paths += stats.ll_paths;
        c.hang_runs += stats.hangs;
        c.hangs_by_package[BaseId(job.workload)] += stats.hangs;
        c.queries += stats.solver_queries;
        c.clauses_loaded += stats.solver_clauses_loaded;
        rep.busy_s += stats.elapsed_seconds;
        rep.job_ms.push_back(stats.elapsed_seconds * 1e3);
        if (job.status != service::JobStatus::kCompleted || stats.stopped) {
            ++rep.failed;
            rep.problems.push_back(
                "job " + std::to_string(job.job_index) + " (" +
                job.workload + ") ended " +
                service::JobStatusName(job.status) + ": " + job.error);
        }
    }
    const obs::MetricsSnapshot& telemetry = coordinator.cluster_telemetry();
    c.sat_calls = telemetry.CounterValue("solver.sat_calls");
    c.cache_hits = telemetry.CounterValue("solver.cache_hits");
    c.model_reuse_hits = telemetry.CounterValue("solver.model_reuse_hits");
    c.infeasible_states = telemetry.CounterValue("engine.infeasible_states");
    c.corpus_size = coordinator.corpus().size();
    c.fingerprint_digest = DigestKeys(coordinator.corpus().Keys());
    rep.solve_s = coordinator.merged_stats().solver_seconds;
    rep.remote_duplicate_hits = coordinator.cross_shard().remote_duplicate_hits;

    if (keep_replays) {
        for (const service::TestCorpus::Entry& entry :
             coordinator.corpus().Snapshot()) {
            if (entry.outcome_kind == "hang") {
                continue;
            }
            ReplayCase replay;
            replay.workload = BaseId(entry.workload);
            for (const auto& [var, value] : entry.inputs) {
                replay.inputs.Set(var, value);
            }
            replay.kind = entry.outcome_kind;
            replay.detail = entry.outcome_detail;
            rep.replays.push_back(std::move(replay));
        }
    }
    if (tracer != nullptr) {
        rep.trace = coordinator.trace_events();
        for (obs::TraceEvent& event : tracer->TakeEvents()) {
            rep.trace.push_back(std::move(event));
        }
    }
    rep.compile_s = static_cast<double>(Probe().compile_ns.load()) * 1e-9;
    rep.run_s = static_cast<double>(Probe().run_ns.load()) * 1e-9;
    Probe().Reset(nullptr);
    return rep;
}

/// Set-up alone, for extra set-up samples; returns its duration.
double
SetupOnly(const WorkloadPlan& plan, uint64_t run_seed)
{
    const auto start = Clock::now();
    if (plan.cluster()) {
        LoopbackCluster cluster(plan.shards);
        cluster.AwaitHellos();
        shard::ShardCoordinator coordinator(
            CoordinatorOptions(run_seed, false));
        return Since(start);  // Teardown stays outside the sample.
    }
    const SerialSessions setup = SetUpSessions(plan, run_seed, nullptr);
    return Since(start);  // Teardown stays outside the sample.
}

// ---------------------------------------------------------------------------
// Replay check and coverage (outside the timed window).
// ---------------------------------------------------------------------------

struct ReplayOutcome {
    size_t replayed = 0;
    size_t mismatches = 0;
    size_t covered = 0;
    size_t coverable = 0;
    double seconds = 0.0;
    std::string first_mismatch;
};

std::string
PackageName(const std::string& id)
{
    return id.substr(id.find('/') + 1);
}

ReplayOutcome
ReplayAll(const std::vector<ReplayCase>& cases,
          const std::vector<std::string>& packages)
{
    ReplayOutcome out;
    const auto start = Clock::now();
    for (const std::string& id : packages) {
        const bool python = id.rfind("py/", 0) == 0;
        std::set<int> covered;
        auto note = [&out](bool matches, const ReplayCase& c) {
            ++out.replayed;
            if (!matches && out.mismatches++ == 0) {
                out.first_mismatch = c.workload + " " + c.kind + " '" +
                                     c.detail + "'";
            }
        };
        if (python) {
            const workloads::PyPackage& package =
                workloads::PyPackageByName(PackageName(id));
            const auto program =
                workloads::CompilePyOrDie(package.test.source);
            out.coverable += workloads::CoverableLines(*program);
            for (const ReplayCase& c : cases) {
                if (c.workload != id) {
                    continue;
                }
                const workloads::PyReplayResult result =
                    workloads::ReplayPy(program, package.test, c.inputs);
                covered.insert(result.covered_lines.begin(),
                               result.covered_lines.end());
                const bool matches =
                    c.kind == "ok" ? result.ok
                    : c.kind == "exception"
                        ? !result.ok && result.exception_type == c.detail
                        : c.kind == "abort" && !result.ok;
                note(matches, c);
            }
        } else {
            const workloads::LuaPackage& package =
                workloads::LuaPackageByName(PackageName(id));
            const auto chunk = workloads::ParseLuaOrDie(package.test.source);
            out.coverable += chunk->coverable_lines.size();
            for (const ReplayCase& c : cases) {
                if (c.workload != id) {
                    continue;
                }
                const workloads::LuaReplayResult result =
                    workloads::ReplayLua(chunk, package.test, c.inputs);
                covered.insert(result.covered_lines.begin(),
                               result.covered_lines.end());
                const bool matches =
                    c.kind == "ok" ? result.ok
                    : c.kind == "error"
                        ? !result.ok && result.error_message == c.detail
                        : c.kind == "abort" && !result.ok;
                note(matches, c);
            }
        }
        out.covered += covered.size();
    }
    out.seconds = Since(start);
    return out;
}

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

/// Per-layer times of one repetition, in seconds. The span-based rows
/// (sat, select self time, residue) need a traced repetition.
struct LayerLedger {
    /// The window the rows share: explore_s, or for the cluster the
    /// shard capacity explore_s x shards.
    double window_s = 0.0;
    double interp_run_s = 0.0;
    double solve_s = 0.0;
    double sat_s = 0.0;
    double select_self_s = 0.0;
    double residue_s = 0.0;
    double idle_s = 0.0;
    double coordinator_s = 0.0;
    SpanSums spans;
};

LayerLedger
BuildLedger(const WorkloadPlan& plan, const RepResult& rep)
{
    LayerLedger ledger;
    ledger.spans = SumSpans(rep.trace);
    ledger.interp_run_s = rep.run_s;
    ledger.solve_s = rep.solve_s;
    ledger.sat_s = ledger.spans.sat_s;
    ledger.select_self_s = ledger.spans.select_self_s();
    const double engine_parts =
        ledger.interp_run_s + ledger.solve_s + ledger.select_self_s;
    if (plan.cluster()) {
        ledger.window_s = rep.explore_s * static_cast<double>(plan.shards);
        ledger.residue_s = rep.busy_s - engine_parts;
        ledger.idle_s = ledger.window_s - rep.busy_s;
        ledger.coordinator_s = rep.wire.busy_seconds();
    } else {
        ledger.window_s = rep.explore_s;
        ledger.residue_s = rep.explore_s - engine_parts;
        ledger.idle_s = rep.explore_s - rep.busy_s;
    }
    return ledger;
}

void
PrintLedger(const WorkloadPlan& plan, const LayerLedger& l,
            const RepResult& rep)
{
    std::printf("ledger %s: self time as a share of %s, from one traced "
                "repetition\n",
                plan.name.c_str(),
                plan.cluster() ? "shard capacity (explore_s x shards)"
                               : "explore_s");
    auto row = [&l](const char* name, double seconds) {
        std::printf("ledger   %-26s %10.4f s %6.1f %%\n", name, seconds,
                    100.0 * Ratio(seconds, l.window_s));
    };
    row("interp.run_s", l.interp_run_s);
    row("solver.solve_s", l.solve_s);
    row("  of which solver.sat_s", l.sat_s);
    row("cupa.select_self_s", l.select_self_s);
    row("chef.residue_s", l.residue_s);
    row(plan.cluster() ? "service.idle_s" : "  of which between sessions",
        l.idle_s);
    if (!plan.cluster()) {
        std::printf("ledger   %-26s %10.2f ns over %llu steps\n",
                    "interp.ns_per_step",
                    1e9 * Ratio(l.interp_run_s,
                                static_cast<double>(rep.counts.steps)),
                    static_cast<unsigned long long>(rep.counts.steps));
        return;
    }
    std::printf("ledger   %-26s %10.4f s %6.1f %% of explore_s\n",
                "shard.coordinator_s", l.coordinator_s,
                100.0 * Ratio(l.coordinator_s, rep.explore_s));
    std::printf("ledger   %-26s %10.4f s for %zu bytes\n",
                "shard.report_render_s", rep.report_render_s,
                rep.report_bytes);
    std::printf("wire     %-10s %9s %11s %10s %11s %9s\n", "type",
                "frames_in", "bytes_in", "frames_out", "bytes_out",
                "send_ms");
    for (const auto& [type, t] : rep.wire.by_type()) {
        std::printf("wire     %-10s %9llu %11llu %10llu %11llu %9.3f\n",
                    type.c_str(), static_cast<unsigned long long>(t.frames_in),
                    static_cast<unsigned long long>(t.bytes_in),
                    static_cast<unsigned long long>(t.frames_out),
                    static_cast<unsigned long long>(t.bytes_out),
                    t.send_seconds * 1e3);
    }
}

/// Writes {"name": {"value", "unit", "samples"}, ...} in insertion order.
class MetricWriter
{
  public:
    explicit MetricWriter(support::JsonWriter* json) : json_(json)
    {
        json_->BeginObject();
    }

    void Add(const char* name, double value, const char* unit,
             size_t samples = 1)
    {
        // Every digit, unlike JsonWriter's fixed six decimals.
        char digits[64];
        std::snprintf(digits, sizeof(digits), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        json_->Key(name);
        json_->BeginObject();
        json_->Key("value"), json_->RawValue(digits);
        json_->Key("unit"), json_->Value(unit);
        json_->Key("samples"), json_->Value(samples);
        json_->EndObject();
    }
    void Count(const char* name, uint64_t value, const char* unit = "count")
    {
        Add(name, static_cast<double>(value), unit);
    }

    void Close() { json_->EndObject(); }

  private:
    support::JsonWriter* json_;
};

void
WriteEndToEnd(MetricWriter& m, const RepResult& rep)
{
    const Counts& c = rep.counts;
    m.Add("explore_s", rep.explore_s, "s");
    m.Count("hl_paths", c.hl_paths);
    m.Add("hl_paths_per_s",
          Ratio(static_cast<double>(c.hl_paths), rep.explore_s), "1/s");
    m.Add("jobs_per_s", Ratio(static_cast<double>(c.sessions), rep.explore_s),
          "1/s");
}

/// Per-layer metrics. The span-based ones need a traced repetition; the
/// rest come from every repetition, so the caller can take them from
/// untraced ones.
void
WritePerLayer(MetricWriter& m, const RepResult& rep, const LayerLedger& l)
{
    const Counts& c = rep.counts;
    auto as_double = [](uint64_t value) { return static_cast<double>(value); };
    m.Add("interp.run_s", l.interp_run_s, "s");
    m.Count("interp.steps", c.steps);
    m.Add("interp.compile_s", rep.compile_s, "s");
    m.Add("solver.solve_s", l.solve_s, "s");
    if (rep.traced) {
        m.Add("solver.sat_s", l.sat_s, "s");
        m.Add("solver.pipeline_self_s", l.solve_s - l.sat_s, "s");
    }
    m.Count("solver.queries", c.queries);
    m.Count("solver.slices_solved", c.slices_solved);
    m.Count("solver.sat_calls", c.sat_calls);
    m.Count("solver.cache_hits", c.cache_hits);
    m.Count("solver.model_reuse_hits", c.model_reuse_hits);
    m.Count("solver.clauses_loaded", c.clauses_loaded);
    // Share of solver lookups answered without a SAT call.
    const double reused = as_double(c.cache_hits + c.model_reuse_hits);
    m.Add("solver.hit_ratio", Ratio(reused, reused + as_double(c.sat_calls)),
          "ratio");
    if (rep.traced) {
        m.Add("solver.sat_ms_per_call",
              1e3 * Ratio(l.sat_s, as_double(c.sat_calls)), "ms",
              c.sat_calls);
        m.Add("cupa.select_self_s", l.select_self_s, "s");
    }
    m.Count("cupa.infeasible_states", c.infeasible_states);
    // Every run after a session's first starts from a feasible selection.
    const double feasible = as_double(c.ll_paths) - as_double(c.sessions);
    m.Add("cupa.feasible_ratio",
          Ratio(feasible, feasible + as_double(c.infeasible_states)), "ratio");
    m.Count("lowlevel.states_registered", c.states_registered);
    m.Count("lowlevel.tree_nodes", c.tree_nodes);
    m.Count("lowlevel.hang_runs", c.hang_runs);
    m.Add("hll.hl_per_ll", Ratio(as_double(c.hl_paths), as_double(c.ll_paths)),
          "ratio");
    m.Count("hll.tree_nodes", c.hl_tree_nodes);
    if (rep.traced) {
        m.Add("chef.residue_s", l.residue_s, "s");
        m.Add("chef.run_ms_p50", Quantile(l.spans.engine_run_ms, 0.5), "ms",
              l.spans.engine_run_ms.size());
        m.Add("chef.run_ms_p99", Quantile(l.spans.engine_run_ms, 0.99),
              "ms", l.spans.engine_run_ms.size());
    }
    m.Add("service.job_ms_p50", Quantile(rep.job_ms, 0.5), "ms",
          rep.job_ms.size());
    m.Add("service.job_ms_p95", Quantile(rep.job_ms, 0.95), "ms",
          rep.job_ms.size());
    m.Add("service.busy_s", rep.busy_s, "s");
    m.Add("service.idle_pct", 100.0 * Ratio(l.idle_s, l.window_s), "%");
    m.Count("service.corpus_size", c.corpus_size);
    const WireTally::PerType gossip = rep.wire.Get("gossip");
    m.Add("shard.coordinator_pct",
          100.0 * Ratio(l.coordinator_s, rep.explore_s), "%");
    m.Count("shard.frames.gossip", gossip.frames());
    m.Count("shard.frames.heartbeat", rep.wire.Get("heartbeat").frames());
    m.Count("shard.bytes.gossip", gossip.bytes(), "bytes");
    m.Count("shard.bytes.result", rep.wire.Get("result").bytes(), "bytes");
    m.Add("shard.bytes_per_gossip_frame",
          Ratio(as_double(gossip.bytes()), as_double(gossip.frames())),
          "bytes");
    m.Count("shard.remote_duplicate_hits", rep.remote_duplicate_hits);
    m.Count("shard.report_bytes", rep.report_bytes, "bytes");
}

/// The work counts the fixed-work guard records (must match the
/// recorded values at the default seed).
void
WriteGuardedCounts(support::JsonWriter& json, const Counts& c)
{
    char digest[32];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(c.fingerprint_digest));
    json.BeginObject();
    json.Key("hl_paths"), json.Value(c.hl_paths);
    json.Key("ll_paths"), json.Value(c.ll_paths);
    json.Key("lowlevel.hang_runs"), json.Value(c.hang_runs);
    json.Key("interp.steps"), json.Value(c.steps);
    json.Key("solver.queries"), json.Value(c.queries);
    json.Key("solver.sat_calls"), json.Value(c.sat_calls);
    json.Key("lowlevel.states_registered"), json.Value(c.states_registered);
    json.Key("service.corpus_size"), json.Value(c.corpus_size);
    json.Key("fingerprint_digest"), json.Value(std::string(digest));
    json.EndObject();
}

/// Further deterministic counts: identical across repetitions of one
/// seed, but not recorded.
void
WriteOtherCounts(support::JsonWriter& json, const Counts& c)
{
    json.BeginObject();
    json.Key("sessions"), json.Value(c.sessions);
    json.Key("slices_solved"), json.Value(c.slices_solved);
    json.Key("cache_hits"), json.Value(c.cache_hits);
    json.Key("model_reuse_hits"), json.Value(c.model_reuse_hits);
    json.Key("clauses_loaded"), json.Value(c.clauses_loaded);
    json.Key("infeasible_states"), json.Value(c.infeasible_states);
    json.Key("tree_nodes"), json.Value(c.tree_nodes);
    json.Key("hl_tree_nodes"), json.Value(c.hl_tree_nodes);
    for (const auto& [package, hangs] : c.hangs_by_package) {
        json.Key(("hangs." + package).c_str()), json.Value(hangs);
    }
    json.EndObject();
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    bool replay = false;
    std::string out_dir = ".";
};

bool
ParseArgs(int argc, char** argv, Args* args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char* value = argv[i + 1];
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--trace") {
            args->trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--replay") {
            args->replay = std::strcmp(value, "0") != 0;
        } else if (flag == "--out-dir") {
            args->out_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !args->workload.empty();
}

int
Main(int argc, char** argv)
{
    Args args;
    WorkloadPlan plan;
    if (!ParseArgs(argc, argv, &args) || !MakePlan(args.workload, &plan)) {
        std::fprintf(stderr,
                     "usage: chef_perfbench --workload "
                     "<solver-bound|interp-bound|cluster-batch> --seed <n> "
                     "[--trace 0|1] [--replay 0|1] [--out-dir <dir>]\n");
        return 2;
    }
    RegisterProbedWorkloads();

    // Set-up takes a millisecond or less, so it is sampled several times.
    std::vector<double> setup_samples;
    for (int i = 0; i < kSetupSamples; ++i) {
        setup_samples.push_back(SetupOnly(plan, args.seed));
    }
    obs::PhaseTracer tracer;
    tracer.set_enabled(true);
    obs::PhaseTracer* rep_tracer = args.trace ? &tracer : nullptr;
    RepResult rep =
        plan.cluster()
            ? RunClusterRep(plan, args.seed, rep_tracer, args.replay)
            : RunSerialRep(plan, args.seed, rep_tracer, args.replay);
    setup_samples.push_back(rep.setup_s);

    const std::vector<std::string> packages = PlanPackages(plan);
    for (const std::string& id : packages) {
        const bool expect_hang =
            id.rfind("lua/", 0) == 0 &&
            workloads::LuaPackageByName(PackageName(id)).expect_hang;
        if (expect_hang && rep.counts.hangs_by_package[id] == 0) {
            rep.problems.push_back(id + " found no hang (Table 3)");
        }
    }
    ReplayOutcome replay;
    if (args.replay) {
        replay = ReplayAll(rep.replays, packages);
        if (replay.replayed == 0 || replay.mismatches > 0) {
            rep.problems.push_back(
                std::to_string(replay.mismatches) + " of " +
                std::to_string(replay.replayed) +
                " replays disagree (first: " + replay.first_mismatch + ")");
        }
    }

    const LayerLedger ledger = BuildLedger(plan, rep);
    if (args.trace) {
        PrintLedger(plan, ledger, rep);
        const std::string path =
            args.out_dir + "/trace-" + plan.name + ".json";
        std::string error;
        if (obs::WriteChromeTraceFile(path, rep.trace, &error)) {
            std::printf("trace %s (%zu spans)\n", path.c_str(),
                        rep.trace.size());
        } else {
            rep.problems.push_back("trace not written: " + error);
        }
    }

    support::JsonWriter json;
    json.BeginObject();
    json.Key("workload"), json.Value(plan.name);
    json.Key("traced"), json.Value(args.trace);
    json.Key("attempted"), json.Value(rep.counts.sessions);
    json.Key("failed"), json.Value(rep.failed);
    json.Key("problems");
    json.BeginArray();
    for (const std::string& problem : rep.problems) {
        json.Value(problem);
    }
    json.EndArray();
    json.Key("setup_s");
    json.BeginArray();
    for (const double sample : setup_samples) {
        char digits[64];
        std::snprintf(digits, sizeof(digits), "%.17g", sample);
        json.RawValue(digits);
    }
    json.EndArray();
    json.Key("counts");
    WriteGuardedCounts(json, rep.counts);
    json.Key("other_counts");
    WriteOtherCounts(json, rep.counts);
    json.Key("metrics");
    MetricWriter metrics(&json);
    WriteEndToEnd(metrics, rep);
    if (args.replay) {
        metrics.Add("line_coverage_pct",
                    100.0 * Ratio(static_cast<double>(replay.covered),
                                  static_cast<double>(replay.coverable)),
                    "%", replay.replayed);
        metrics.Add("interp.replay_s", replay.seconds, "s", replay.replayed);
    }
    WritePerLayer(metrics, rep, ledger);
    metrics.Close();
    json.EndObject();
    std::printf("%s\n", json.Take().c_str());
    return 0;
}

}  // namespace
}  // namespace chef::perfbench

int
main(int argc, char** argv)
{
    return chef::perfbench::Main(argc, argv);
}
