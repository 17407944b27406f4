#include "chef/engine.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "support/diagnostics.h"

namespace chef {

const char*
StrategyKindName(StrategyKind kind)
{
    switch (kind) {
      case StrategyKind::kRandom: return "random";
      case StrategyKind::kDfs: return "dfs";
      case StrategyKind::kBfs: return "bfs";
      case StrategyKind::kCupaPath: return "cupa-path";
      case StrategyKind::kCupaCoverage: return "cupa-coverage";
      case StrategyKind::kCupaPathInverted: return "cupa-path-inverted";
    }
    return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

/// The session's solver shares the engine's telemetry context unless the
/// caller wired a distinct one into solver_options directly.
solver::Solver::Options
SolverOptionsFor(const Engine::Options& options)
{
    solver::Solver::Options solver_options = options.solver_options;
    if (solver_options.obs.metrics == nullptr &&
        solver_options.obs.tracer == nullptr) {
        solver_options.obs = options.obs;
    }
    return solver_options;
}

}  // namespace

/// A persistent pool of exploration worker threads dispatching one round of
/// indexed jobs at a time. Run() blocks until every job of the round has
/// completed (the round barrier).
class Engine::RoundPool
{
  public:
    explicit RoundPool(size_t threads)
    {
        workers_.reserve(threads);
        for (size_t i = 0; i < threads; ++i) {
            workers_.emplace_back([this, i] { WorkerLoop(i); });
        }
    }

    ~RoundPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (std::thread& worker : workers_) {
            worker.join();
        }
    }

    /// Executes job(worker_id, index) for index in [0, count); returns once
    /// all have finished.
    void Run(size_t count, const std::function<void(size_t, size_t)>& job)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        job_ = &job;
        count_ = count;
        next_ = 0;
        done_ = 0;
        ++generation_;
        cv_.notify_all();
        done_cv_.wait(lock, [this] { return done_ == count_; });
        job_ = nullptr;
    }

  private:
    void WorkerLoop(size_t id)
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            cv_.wait(lock, [&] {
                return stop_ || (generation_ != seen && job_ != nullptr);
            });
            if (stop_) {
                return;
            }
            seen = generation_;
            while (next_ < count_) {
                const size_t index = next_++;
                lock.unlock();
                (*job_)(id, index);
                lock.lock();
                if (++done_ == count_) {
                    done_cv_.notify_all();
                }
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> workers_;
    const std::function<void(size_t, size_t)>* job_ = nullptr;
    size_t count_ = 0;
    size_t next_ = 0;
    size_t done_ = 0;
    uint64_t generation_ = 0;
    bool stop_ = false;
};

/// Per-exploration-thread context: own solver (answering the runtime's
/// queries during a run) and own runtime used in recording mode, sharing
/// the engine's tree (untouched while recording) and shared solver cache
/// (if any).
struct Engine::WorkerContext {
    explicit WorkerContext(Engine& engine)
        : solver(SolverOptionsFor(engine.options_)),
          runtime(&engine.tree_, &solver,
                  lowlevel::LowLevelRuntime::Options{
                      engine.options_.max_steps_per_run,
                      engine.options_.fork_weight_decay})
    {
    }

    solver::Solver solver;
    lowlevel::LowLevelRuntime runtime;
};

/// One run of a round: the assignment to run under, the claimed state it
/// came from (if any), and the run's results (with its recorded log when it
/// ran on a worker).
struct Engine::RoundItem {
    solver::Assignment assignment;
    bool from_pending = false;
    lowlevel::AlternateState claimed;
    lowlevel::RunLog log;
    lowlevel::RunStats run_stats;
    GuestOutcome outcome;
    solver::Assignment complete_inputs;
    bool ran = false;
};

Engine::Engine(Options options)
    : options_(options),
      rng_(options.seed),
      solver_(SolverOptionsFor(options)),
      tree_(),
      runtime_(&tree_, &solver_,
               lowlevel::LowLevelRuntime::Options{
                   options.max_steps_per_run, options.fork_weight_decay}),
      tracker_()
{
    if (options_.obs.metrics != nullptr) {
        obs::MetricsRegistry& registry = *options_.obs.metrics;
        m_runs_ = registry.counter("engine.runs");
        m_hl_paths_ = registry.counter("engine.hl_paths");
        m_infeasible_ = registry.counter("engine.infeasible_states");
        m_run_latency_ = registry.histogram("engine.run_seconds");
        m_par_in_flight_ = registry.gauge("engine.parallel.states_in_flight");
        m_par_claims_ = registry.counter("engine.parallel.claims");
        m_par_rounds_ = registry.counter("engine.parallel.rounds");
        m_par_barrier_wait_ =
            registry.histogram("engine.parallel.barrier_wait_seconds");
    }
    tracker_.Attach(&runtime_);
    strategy_ = MakeStrategy();
    tree_.set_on_pending_removed(
        [this](lowlevel::StateId id) { strategy_->OnStateRemoved(id); });
    tree_.set_on_state_added(
        [this](const lowlevel::AlternateState& state) {
            strategy_->OnStateAdded(state);
            // Fork attribution: state ids are monotone, so the
            // high-water mark charges each registered state exactly
            // once (ReleaseClaim re-announces with an old id). The
            // hook runs under the tree lock; all registrations happen
            // on the serial commit path (or the live run), so the
            // charge order is thread-count-invariant.
            if (options_.obs.attribution != nullptr &&
                state.id > attr_last_fork_id_) {
                attr_last_fork_id_ = state.id;
                options_.obs.attribution->Charge(
                    state.static_hlpc, obs::AttributionProfiler::kForks);
            }
        });
}

std::unique_ptr<cupa::SearchStrategy>
Engine::MakeStrategy()
{
    switch (options_.strategy) {
      case StrategyKind::kRandom:
        return std::make_unique<cupa::RandomStrategy>(&rng_);
      case StrategyKind::kDfs:
        return std::make_unique<cupa::DfsStrategy>();
      case StrategyKind::kBfs:
        return std::make_unique<cupa::BfsStrategy>();
      case StrategyKind::kCupaPath:
        return cupa::MakePathOptimizedCupa(&tree_, &rng_);
      case StrategyKind::kCupaPathInverted:
        return cupa::MakeInvertedPathCupa(&tree_, &rng_);
      case StrategyKind::kCupaCoverage:
        return cupa::MakeCoverageOptimizedCupa(
            &tree_, &rng_, [this](uint64_t static_hlpc) {
                return tracker_.cfg().DistanceWeight(static_hlpc);
            });
    }
    CHEF_UNREACHABLE("unknown strategy kind");
}

solver::Assignment
Engine::CompleteInputsFor(const lowlevel::LowLevelRuntime& runtime)
{
    // Merge the run's assignment over the per-variable defaults so that a
    // test case report always lists a concrete value for every input.
    solver::Assignment complete;
    const auto& variables = runtime.variables();
    for (size_t i = 0; i < variables.size(); ++i) {
        const uint32_t var_id = static_cast<uint32_t>(i + 1);
        complete.Set(var_id, runtime.inputs().Has(var_id)
                                 ? runtime.inputs().Get(var_id)
                                 : variables[i].default_value);
    }
    return complete;
}

std::vector<TestCase>
Engine::Explore(const RunFn& run)
{
    start_ = Clock::now();
    const uint32_t threads =
        std::max<uint32_t>(1, options_.exploration_threads);
    const bool parallel = threads > 1;
    stats_.threads_used = threads;
    std::vector<std::unique_ptr<WorkerContext>> workers;
    std::unique_ptr<RoundPool> pool;
    if (parallel) {
        for (uint32_t i = 0; i < threads; ++i) {
            workers.push_back(std::make_unique<WorkerContext>(*this));
        }
        pool = std::make_unique<RoundPool>(threads);
    }

    std::vector<TestCase> test_cases;
    std::vector<RoundItem> round(1);  // The first run uses declared defaults.
    // Whether the loop actually exited because of the cancellation hook
    // (recorded at the exit points: re-evaluating the hook after the loop
    // would misreport a naturally completed session whose budget expires
    // moments later).
    bool stopped = false;

    while (stats_.ll_paths < options_.max_runs &&
           Elapsed() < options_.max_seconds) {
        if (StopRequested()) {
            stopped = true;
            break;
        }
        if (parallel) {
            RunRecorded(run, &round, workers, *pool, &stopped);
        } else {
            RunLive(run, &round.front());
        }

        // -- Commit phase: serial, in selection order. Identical shared
        //    state evolution no matter how the run phase was scheduled.
        //    Assume-retry assignments enter the next round unclaimed, and
        //    items a mid-round stop skipped are kept for the release below.
        std::vector<RoundItem> next;
        for (RoundItem& item : round) {
            if (!item.ran) {
                next.push_back(std::move(item));
                continue;
            }
            RoundItem retry;
            if (CommitRun(item, parallel, &test_cases, &retry.assignment)) {
                next.push_back(std::move(retry));
            }
        }
        round = std::move(next);
        // Coverage-optimized CUPA consults CFG distances; refresh the
        // analysis with the newly observed edges.
        if (options_.strategy == StrategyKind::kCupaCoverage) {
            tracker_.cfg().RecomputeAnalysis(
                options_.branch_opcode_drop_fraction);
        }
        if (parallel) {
            ++stats_.rounds;
            if (m_par_rounds_ != nullptr) {
                m_par_rounds_->Add();
            }
        }
        if (stopped) {
            break;
        }

        // -- Selection phase. A parallel round never runs more than the
        //    runs left in the budget. The one-thread round is not capped:
        //    it solves its next state before the budget check ends the
        //    session, and the fixed-work benchmark's pinned solver counts
        //    include that solve.
        const size_t runs_left =
            static_cast<size_t>(options_.max_runs - stats_.ll_paths);
        SelectRound(parallel ? std::min(kRoundWidth, runs_left) : 1, &round,
                    &stopped);
        if (stopped || round.empty()) {
            break;  // Stopped, or exploration exhausted.
        }
    }
    // States claimed for a round that never ran go back to the pending
    // pool, so the tree's bookkeeping stays consistent.
    for (const RoundItem& item : round) {
        if (item.from_pending) {
            tree_.ReleaseClaim(item.claimed);
        }
    }
    stats_.stopped = stopped;
    FinalizeStats(workers);
    return test_cases;
}

void
Engine::RunLive(const RunFn& run, RoundItem* item)
{
    // The interpreter dispatch loop runs inside run(), so the span is the
    // "where does interpreter time go" row of the trace.
    const auto run_start = Clock::now();
    runtime_.BeginRun(item->assignment);
    tracker_.BeginRun();
    {
        CHEF_OBS_SPAN(run_span, options_.obs.tracer, "engine/run", "engine");
        item->outcome = run(runtime_);
    }
    item->run_stats = runtime_.EndRun();
    item->complete_inputs = CompleteInputsFor(runtime_);
    item->ran = true;
    if (m_runs_ != nullptr) {
        m_runs_->Add();
        m_run_latency_->Record(
            std::chrono::duration<double>(Clock::now() - run_start).count());
    }
}

void
Engine::RunRecorded(const RunFn& run, std::vector<RoundItem>* round,
                    const std::vector<std::unique_ptr<WorkerContext>>& workers,
                    RoundPool& pool, bool* stopped)
{
    // The guest runs execute in parallel, purely as a function of their
    // assignment (recording mode).
    const size_t threads = workers.size();
    std::atomic<bool> round_stop{false};
    std::vector<Clock::time_point> last_finish(threads);
    std::vector<char> worker_ran(threads, 0);
    pool.Run(round->size(), [&](size_t worker, size_t index) {
        RoundItem& item = (*round)[index];
        if (round_stop.load(std::memory_order_relaxed)) {
            return;
        }
        if (StopRequested()) {
            round_stop.store(true, std::memory_order_relaxed);
            return;
        }
        WorkerContext& context = *workers[worker];
        if (m_par_in_flight_ != nullptr) {
            m_par_in_flight_->Add(1);
        }
        const auto run_start = Clock::now();
        context.runtime.BeginRecordedRun(item.assignment, &item.log);
        {
            CHEF_OBS_SPAN(run_span, options_.obs.tracer,
                          "engine/parallel_run", "engine");
            item.outcome = run(context.runtime);
        }
        item.run_stats = context.runtime.EndRun();
        item.complete_inputs = CompleteInputsFor(context.runtime);
        item.ran = true;
        if (m_runs_ != nullptr) {
            m_runs_->Add();
            m_run_latency_->Record(
                std::chrono::duration<double>(Clock::now() - run_start)
                    .count());
        }
        if (m_par_in_flight_ != nullptr) {
            m_par_in_flight_->Add(-1);
        }
        last_finish[worker] = Clock::now();
        worker_ran[worker] = 1;
    });
    const auto round_end = Clock::now();
    for (size_t worker = 0; worker < threads; ++worker) {
        if (worker_ran[worker] == 0) {
            continue;
        }
        const double wait =
            std::chrono::duration<double>(round_end - last_finish[worker])
                .count();
        stats_.barrier_wait_seconds += wait;
        if (m_par_barrier_wait_ != nullptr) {
            m_par_barrier_wait_->Record(wait);
        }
    }
    if (round_stop.load(std::memory_order_relaxed)) {
        *stopped = true;
    }
}

void
Engine::SelectRound(size_t limit, std::vector<RoundItem>* round,
                    bool* stopped)
{
    // Serial, on the session solver, in strategy order: deterministic
    // regardless of the thread count. The wall-clock budget applies here
    // too: draining a large pool of infeasible states (runaway loops) must
    // not stall the session.
    CHEF_OBS_SPAN(select_span, options_.obs.tracer, "engine/select",
                  "engine");
    const bool parallel = stats_.threads_used > 1;
    while (round->size() < limit && !strategy_->empty() &&
           Elapsed() < options_.max_seconds) {
        if (StopRequested()) {
            *stopped = true;
            return;
        }
        // The worker pool is idle here, but strategy calls still go
        // through the tree lock: strategy selection may re-enter the tree
        // to read state attributes.
        lowlevel::AlternateState state;
        if (!tree_.ClaimState([this] { return strategy_->ClaimState(); },
                              &state)) {
            return;
        }
        if (parallel) {
            ++stats_.claims;
            if (m_par_claims_ != nullptr) {
                m_par_claims_->Add();
            }
        }
        frontier_inspector_.RecordPick(StrategyKindName(options_.strategy),
                                       state.static_hlpc, state.depth);
        solver::Assignment model;
        solver::QueryResult result;
        {
            const obs::ScopedLocation solve_location(state.static_hlpc);
            result = solver_.Solve(state.path_condition, &model);
        }
        if (result == solver::QueryResult::kSat) {
            RoundItem& item = round->emplace_back();
            item.assignment = std::move(model);
            item.from_pending = true;
            item.claimed = std::move(state);
            continue;
        }
        tree_.MarkInfeasible(state);
        if (result == solver::QueryResult::kUnsat) {
            ++stats_.infeasible_states;
            if (m_infeasible_ != nullptr) {
                m_infeasible_->Add();
            }
        } else {
            ++stats_.solver_failures;
        }
    }
}

void
Engine::ChargeRunAttribution(uint64_t origin_hlpc, bool new_hl_path,
                             bool assume_violated)
{
    obs::AttributionProfiler* profiler = options_.obs.attribution;
    if (profiler == nullptr) {
        return;
    }
    // One step per trace entry, linked to its predecessor so the
    // folded-stack export can reconstruct discovery chains.
    uint64_t previous = obs::kAttributionNoParent;
    for (const uint64_t hl_pc : tracker_.current_trace()) {
        profiler->ChargeWithParent(hl_pc, previous,
                                   obs::AttributionProfiler::kSteps);
        previous = hl_pc;
    }
    profiler->Charge(origin_hlpc, obs::AttributionProfiler::kRuns);
    if (assume_violated) {
        profiler->Charge(LastTraceLocation(),
                         obs::AttributionProfiler::kAssumeFailures);
    } else if (new_hl_path) {
        // Yield: the fingerprint is credited to the location whose
        // alternate state led to this run.
        profiler->Charge(origin_hlpc,
                         obs::AttributionProfiler::kNewFingerprints);
    }
}

uint64_t
Engine::LastTraceLocation() const
{
    const std::vector<uint64_t>& trace = tracker_.current_trace();
    return trace.empty() ? 0 : trace.back();
}

bool
Engine::CommitRun(RoundItem& item, bool replay,
                  std::vector<TestCase>* test_cases,
                  solver::Assignment* retry)
{
    // A live run has already fed the tree and tracker; a recorded one is
    // replayed into them here.
    uint64_t registered_states = item.run_stats.registered_states;
    if (replay) {
        tracker_.BeginRun();
        registered_states =
            runtime_.CommitRecordedRun(item.log).registered_states;
    }
    const hll::HlPathInfo hl_info = tracker_.EndRun();
    stats_.states_registered += registered_states;
    ChargeRunAttribution(
        item.from_pending ? item.claimed.static_hlpc : 0,
        hl_info.is_new_path,
        item.run_stats.status == lowlevel::PathStatus::kAssumeViolated);
    if (item.from_pending) {
        tree_.CompleteClaim(item.claimed.id);
    }

    if (item.run_stats.status == lowlevel::PathStatus::kAssumeViolated) {
        // The inputs violate a test assumption. Re-solve the run's path
        // condition (which includes the assumption) to rerun it.
        ++stats_.assume_retries;
        solver::Assignment model;
        const obs::ScopedLocation solve_location(LastTraceLocation());
        if (solver_.Solve(runtime_.current_path_condition(), &model) ==
            solver::QueryResult::kSat) {
            *retry = std::move(model);
            return true;
        }
        // The symbolic test's assumptions are unsatisfiable on this path
        // prefix; the chain ends here.
        return false;
    }

    TestCase test_case;
    test_case.inputs = std::move(item.complete_inputs);
    test_case.status = item.run_stats.status;
    test_case.new_hl_path = hl_info.is_new_path;
    test_case.hl_final_node = hl_info.final_node;
    test_case.hl_path_fingerprint = hl_info.path_hash;
    test_case.hl_length = hl_info.length;
    test_case.ll_steps = item.run_stats.steps;
    if (item.run_stats.status == lowlevel::PathStatus::kHang) {
        ++stats_.hangs;
        test_case.outcome_kind = "hang";
        test_case.outcome_detail = std::move(item.outcome.detail);
    } else {
        test_case.outcome_kind = std::move(item.outcome.kind);
        test_case.outcome_detail = std::move(item.outcome.detail);
    }
    ++stats_.ll_paths;
    if (hl_info.is_new_path) {
        ++stats_.hl_paths;
        if (m_hl_paths_ != nullptr) {
            m_hl_paths_->Add();
        }
    }
    test_cases->push_back(std::move(test_case));
    if (options_.collect_timeline) {
        stats_.timeline.push_back(
            {Elapsed(), stats_.ll_paths, stats_.hl_paths});
    }
    return false;
}

double
Engine::Elapsed() const
{
    return std::chrono::duration<double>(Clock::now() - start_).count();
}

bool
Engine::StopRequested() const
{
    return options_.stop_requested && options_.stop_requested();
}

void
Engine::FinalizeStats(
    const std::vector<std::unique_ptr<WorkerContext>>& workers)
{
    stats_.solver_queries = solver_.stats().queries;
    stats_.solver_shared_hits = solver_.stats().shared_cache_hits;
    stats_.solver_shared_model_hits =
        solver_.stats().shared_model_reuse_hits;
    stats_.solver_sliced_queries = solver_.stats().sliced_queries;
    stats_.solver_incremental_sat_calls =
        solver_.stats().incremental_sat_calls;
    stats_.solver_clauses_loaded = solver_.stats().clauses_loaded;
    stats_.solver_seconds = solver_.stats().solve_seconds;
    for (const std::unique_ptr<WorkerContext>& worker : workers) {
        const solver::SolverStats& solver_stats = worker->solver.stats();
        stats_.solver_queries += solver_stats.queries;
        stats_.solver_shared_hits += solver_stats.shared_cache_hits;
        stats_.solver_shared_model_hits +=
            solver_stats.shared_model_reuse_hits;
        stats_.solver_sliced_queries += solver_stats.sliced_queries;
        stats_.solver_incremental_sat_calls +=
            solver_stats.incremental_sat_calls;
        stats_.solver_clauses_loaded += solver_stats.clauses_loaded;
        stats_.solver_seconds += solver_stats.solve_seconds;
    }
    stats_.elapsed_seconds = Elapsed();
    if (options_.obs.attribution != nullptr) {
        stats_.attribution = options_.obs.attribution->Snapshot();
    }
    stats_.frontier = tree_.SnapshotFrontier();
    stats_.frontier.strategy_picks = frontier_inspector_.PickCounts();
}

}  // namespace chef
