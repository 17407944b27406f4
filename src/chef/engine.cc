#include "chef/engine.h"

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

/// The session's solver shares each telemetry facility of the engine
/// that the caller did not wire into solver_options directly.
solver::Solver::Options
SolverOptionsFor(const Engine::Options& options)
{
    solver::Solver::Options solver_options = options.solver_options;
    solver_options.obs = solver_options.obs.WithDefaultsFrom(options.obs);
    return solver_options;
}

}  // namespace

/// The session's one in-flight run: the assignment it runs under, the
/// claimed state it came from (if any), and, once run, its results.
struct Engine::InFlightRun {
    solver::Assignment assignment;
    bool from_pending = false;
    lowlevel::AlternateState claimed;
    lowlevel::RunStats run_stats;
    GuestOutcome outcome;
    solver::Assignment complete_inputs;
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
        m_ll_paths_ = registry.counter("engine.ll_paths");
        m_hl_paths_ = registry.counter("engine.hl_paths");
        m_hangs_ = registry.counter("engine.hangs");
        m_infeasible_ = registry.counter("engine.infeasible_states");
        m_run_latency_ = registry.histogram("engine.run_seconds");
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
            // once (ReleaseClaim re-announces with an old id).
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
Engine::CompleteInputs() const
{
    // Merge the run's assignment over the per-variable defaults so that a
    // test case report always lists a concrete value for every input.
    solver::Assignment complete;
    const auto& variables = runtime_.variables();
    for (size_t i = 0; i < variables.size(); ++i) {
        const uint32_t var_id = static_cast<uint32_t>(i + 1);
        complete.Set(var_id, runtime_.inputs().Has(var_id)
                                 ? runtime_.inputs().Get(var_id)
                                 : variables[i].default_value);
    }
    return complete;
}

std::vector<TestCase>
Engine::Explore(const RunFn& run)
{
    start_ = Clock::now();
    std::vector<TestCase> test_cases;
    InFlightRun next;  // The first run uses declared defaults.
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
        RunGuest(run, &next);
        solver::Assignment retry;
        const bool retrying = CommitRun(next, &test_cases, &retry);
        // Coverage-optimized CUPA consults CFG distances; refresh the
        // analysis with the newly observed edges.
        if (options_.strategy == StrategyKind::kCupaCoverage) {
            tracker_.cfg().RecomputeAnalysis(
                options_.branch_opcode_drop_fraction);
        }
        // An assume-retry assignment runs next, unclaimed. Otherwise the
        // next state is solved before the budget check above can end the
        // session; the fixed-work benchmark's pinned solver counts include
        // that solve.
        next = InFlightRun{};
        if (retrying) {
            next.assignment = std::move(retry);
        } else if (!SelectNext(&next, &stopped)) {
            break;  // Stopped, or exploration exhausted.
        }
    }
    // A state claimed for a run that never ran goes back to the pending
    // pool, so the tree's bookkeeping stays consistent.
    if (next.from_pending) {
        tree_.ReleaseClaim(next.claimed);
    }
    stats_.stopped = stopped;
    FinalizeStats();
    return test_cases;
}

void
Engine::RunGuest(const RunFn& run, InFlightRun* next)
{
    // The interpreter dispatch loop runs inside run(), so the span is the
    // "where does interpreter time go" row of the trace.
    const auto run_start = Clock::now();
    runtime_.BeginRun(next->assignment);
    tracker_.BeginRun();
    {
        CHEF_OBS_SPAN(run_span, options_.obs.tracer, "engine/run", "engine");
        next->outcome = run(runtime_);
    }
    next->run_stats = runtime_.EndRun();
    next->complete_inputs = CompleteInputs();
    if (m_runs_ != nullptr) {
        m_runs_->Add();
        m_run_latency_->Record(
            std::chrono::duration<double>(Clock::now() - run_start).count());
    }
}

bool
Engine::SelectNext(InFlightRun* next, bool* stopped)
{
    // The wall-clock budget applies here too: draining a large pool of
    // infeasible states (runaway loops) must not stall the session.
    CHEF_OBS_SPAN(select_span, options_.obs.tracer, "engine/select",
                  "engine");
    while (!strategy_->empty() && Elapsed() < options_.max_seconds) {
        if (StopRequested()) {
            *stopped = true;
            return false;
        }
        lowlevel::AlternateState state =
            tree_.TakePending(strategy_->ClaimState());
        solver::Assignment model;
        solver::QueryResult result;
        {
            const obs::ScopedLocation solve_location(state.static_hlpc);
            result = solver_.Solve(state.path_condition, &model);
        }
        if (result == solver::QueryResult::kSat) {
            next->assignment = std::move(model);
            next->from_pending = true;
            next->claimed = std::move(state);
            return true;
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
    return false;
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
Engine::CommitRun(InFlightRun& item, std::vector<TestCase>* test_cases,
                  solver::Assignment* retry)
{
    const hll::HlPathInfo hl_info = tracker_.EndRun();
    stats_.states_registered += item.run_stats.registered_states;
    ChargeRunAttribution(
        item.from_pending ? item.claimed.static_hlpc : 0,
        hl_info.is_new_path,
        item.run_stats.status == lowlevel::PathStatus::kAssumeViolated);

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
        if (m_hangs_ != nullptr) {
            m_hangs_->Add();
        }
        test_case.outcome_kind = "hang";
        test_case.outcome_detail = std::move(item.outcome.detail);
    } else {
        test_case.outcome_kind = std::move(item.outcome.kind);
        test_case.outcome_detail = std::move(item.outcome.detail);
    }
    ++stats_.ll_paths;
    if (m_ll_paths_ != nullptr) {
        m_ll_paths_->Add();
    }
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
Engine::FinalizeStats()
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
    stats_.elapsed_seconds = Elapsed();
    if (options_.obs.attribution != nullptr) {
        stats_.attribution = options_.obs.attribution->Snapshot();
    }
}

}  // namespace chef
