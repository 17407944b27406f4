#ifndef CHEF_CHEF_ENGINE_H_
#define CHEF_CHEF_ENGINE_H_

/// \file
/// The CHEF engine: drives concolic iterations over an instrumented
/// interpreter and produces high-level test cases (Figure 4 of the paper).
///
/// One Engine instance corresponds to one symbolic test session, driven
/// by one thread. Each iteration: run the interpreter under the current
/// input assignment, let the low-level runtime record the path and
/// register alternate states, classify the run's high-level path, then ask
/// the search strategy for the next alternate state, validate its path
/// condition with the solver, and re-run under the satisfying assignment.
/// Sessions run in parallel across service workers and shards, never
/// inside one.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cupa/strategy.h"
#include "hll/hl_tracker.h"
#include "lowlevel/exec_tree.h"
#include "lowlevel/runtime.h"
#include "obs/attribution.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace chef {

/// Available state selection strategies.
enum class StrategyKind {
    kRandom,
    kDfs,
    kBfs,
    kCupaPath,          ///< Path-optimized CUPA (§3.3).
    kCupaCoverage,      ///< Coverage-optimized CUPA (§3.4).
    kCupaPathInverted,  ///< Level-order ablation of path CUPA.
};

const char* StrategyKindName(StrategyKind kind);

/// A concrete test case produced from one completed concolic run.
struct TestCase {
    /// Input values, one per declared variable (complete: defaults merged).
    solver::Assignment inputs;
    lowlevel::PathStatus status = lowlevel::PathStatus::kFinished;
    /// True if this run covered a high-level path not seen before — these
    /// are the paper's "relevant high-level test cases".
    bool new_hl_path = false;
    uint32_t hl_final_node = 0;
    /// Session-independent hash of the run's static-HLPC trace. Two runs
    /// (in the same or different sessions) that follow the same high-level
    /// path share the fingerprint, so corpora aggregated across parallel
    /// sessions can deduplicate by it.
    uint64_t hl_path_fingerprint = 0;
    size_t hl_length = 0;
    uint64_t ll_steps = 0;
    /// Guest-visible outcome: "ok", "exception", "hang", "abort".
    std::string outcome_kind;
    /// Detail string, e.g. the exception type name.
    std::string outcome_detail;
};

/// Engine statistics, including the Figure-10 timeline.
struct EngineStats {
    uint64_t ll_paths = 0;
    uint64_t hl_paths = 0;
    uint64_t hangs = 0;
    uint64_t assume_retries = 0;
    uint64_t infeasible_states = 0;
    uint64_t solver_failures = 0;
    uint64_t states_registered = 0;
    /// Total solver queries issued during the session (copied from the
    /// session solver at the end of Explore so callers can total
    /// per-session work without reaching into the solver).
    uint64_t solver_queries = 0;
    /// Queries answered by the batch-shared solver cache / satisfied by a
    /// sibling session's published model (0 unless
    /// Options::solver_options.shared_cache was set).
    uint64_t solver_shared_hits = 0;
    uint64_t solver_shared_model_hits = 0;
    /// Queries that independence slicing split into multiple slices, SAT
    /// calls served by the persistent incremental session, and CNF
    /// clauses loaded into the CDCL backend (copied like solver_queries).
    uint64_t solver_sliced_queries = 0;
    uint64_t solver_incremental_sat_calls = 0;
    uint64_t solver_clauses_loaded = 0;
    /// Time spent inside the session solver.
    double solver_seconds = 0.0;
    /// True if Explore() returned because Options::stop_requested fired.
    bool stopped = false;
    double elapsed_seconds = 0.0;

    struct Sample {
        double t = 0.0;
        uint64_t ll_paths = 0;
        uint64_t hl_paths = 0;
    };
    std::vector<Sample> timeline;

    /// Per-location cost/yield table (obs/attribution.h). Empty unless
    /// Options::obs.attribution was set; the engine charges steps,
    /// forks, runs, assume-failures and new fingerprints as each run
    /// commits and the solver charges wall time per query, then
    /// FinalizeStats snapshots the profiler here.
    obs::AttributionSnapshot attribution;
};

/// The engine. Owns the execution tree, solver, runtime, tracker, and
/// search strategy for one symbolic test.
class Engine
{
  public:
    struct Options {
        StrategyKind strategy = StrategyKind::kCupaPath;
        uint64_t seed = 1;
        /// Exploration stops after this many completed low-level runs.
        uint64_t max_runs = 2000;
        /// ... or after this much wall time. Checked between concolic
        /// iterations and between state-selection solver calls; a guest
        /// run is never interrupted (the per-run step budget bounds it),
        /// so the overshoot is at most one run.
        double max_seconds = 30.0;
        /// Per-run low-level step budget (hang detector). Also bounds the
        /// depth of loop-carried symbolic expression chains, which are
        /// processed recursively.
        uint64_t max_steps_per_run = 500'000;
        double fork_weight_decay = 0.75;
        /// §3.4 least-frequent branching opcode cutoff.
        double branch_opcode_drop_fraction = 0.10;
        /// Per-session solver configuration. Point
        /// solver_options.shared_cache at a cache::SharedSolverCache to
        /// share query results and counterexamples with sibling sessions
        /// (the exploration service does this per batch when its
        /// share_solver_cache option is on). Note: a shared hit may hand
        /// the session a different model than a fresh solve would, so
        /// its results depend on what sibling sessions have published;
        /// cross-run bit-reproducibility only holds without one (or with
        /// a cold, private one).
        solver::Solver::Options solver_options = {};
        bool collect_timeline = true;
        /// Cooperative cancellation hook. Checked between concolic
        /// iterations and between state-selection solver calls, on the
        /// thread that called Explore(). When it returns true the
        /// exploration winds down and Explore() returns the test cases
        /// produced so far. Used by the exploration service to enforce
        /// service-wide wall-clock budgets and user-requested shutdown.
        std::function<bool()> stop_requested;
        /// Telemetry (obs/obs.h). Every facility solver_options.obs
        /// leaves null is taken from here, so the session's solvers
        /// share the same registry and tracer; the engine itself emits
        /// engine/run (interpreter dispatch) and engine/select (state
        /// selection) spans plus engine.* counters (runs, ll_paths,
        /// hl_paths, hangs, ...).
        obs::ObsContext obs;
    };

    /// Outcome descriptor returned by the guest adapter after one run.
    struct GuestOutcome {
        std::string kind = "ok";
        std::string detail;
    };

    /// Executes the target program once under the given runtime; called by
    /// the engine for every concolic iteration.
    using RunFn = std::function<GuestOutcome(lowlevel::LowLevelRuntime&)>;

    Engine() : Engine(Options{}) {}
    explicit Engine(Options options);

    /// Runs the exploration loop and returns every completed run as a test
    /// case (filter on new_hl_path for the paper's relevant test cases).
    std::vector<TestCase> Explore(const RunFn& run);

    const EngineStats& stats() const { return stats_; }
    const lowlevel::ExecutionTree& tree() const { return tree_; }
    const hll::HlpcTracker& tracker() const { return tracker_; }
    solver::Solver& constraint_solver() { return solver_; }
    const Options& options() const { return options_; }

  private:
    struct InFlightRun;

    std::unique_ptr<cupa::SearchStrategy> MakeStrategy();
    solver::Assignment CompleteInputs() const;

    /// Runs the guest once under \p next's assignment on the session
    /// runtime, feeding the tree and tracker as it goes.
    void RunGuest(const RunFn& run, InFlightRun* next);
    /// Claims and solves states in strategy order until one is
    /// satisfiable, which becomes *next; returns false when the strategy
    /// runs dry, the wall-clock budget is spent or a stop request sets
    /// *stopped.
    bool SelectNext(InFlightRun* next, bool* stopped);

    /// Commits a run that has finished: closes its high-level path,
    /// produces the test case or solves the assume-retry assignment, and
    /// updates stats, moving the run's results out of \p item. Returns
    /// true if the commit produced an assume-retry assignment in *retry.
    bool CommitRun(InFlightRun& item, std::vector<TestCase>* test_cases,
                   solver::Assignment* retry);

    /// Charges one committed run to the attribution profiler: a step
    /// per trace entry (with discovery-parent links), the run and its
    /// fingerprint yield to the originating location, assume-failures
    /// to the violation site. No-op without Options::obs.attribution.
    void ChargeRunAttribution(uint64_t origin_hlpc, bool new_hl_path,
                              bool assume_violated);
    /// The last high-level location of the just-committed trace (0 when
    /// the run recorded none) — the assume-violation site.
    uint64_t LastTraceLocation() const;

    /// Seconds since Explore started.
    double Elapsed() const;
    bool StopRequested() const;

    void FinalizeStats();

    Options options_;
    Rng rng_;
    std::chrono::steady_clock::time_point start_;
    // Resolved once at construction; null when Options::obs carries no
    // registry.
    obs::Counter* m_runs_ = nullptr;
    obs::Counter* m_ll_paths_ = nullptr;
    obs::Counter* m_hl_paths_ = nullptr;
    obs::Counter* m_hangs_ = nullptr;
    obs::Counter* m_infeasible_ = nullptr;
    obs::Histogram* m_run_latency_ = nullptr;
    solver::Solver solver_;
    lowlevel::ExecutionTree tree_;
    lowlevel::LowLevelRuntime runtime_;
    hll::HlpcTracker tracker_;
    std::unique_ptr<cupa::SearchStrategy> strategy_;
    EngineStats stats_;
    /// High-water mark over announced state ids: ReleaseClaim
    /// re-announces a state through the state-added hook, so fork
    /// charges fire only for ids above the mark (exactly once per
    /// registered state).
    lowlevel::StateId attr_last_fork_id_ = 0;
};

}  // namespace chef

#endif  // CHEF_CHEF_ENGINE_H_
