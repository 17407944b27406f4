#ifndef CHEF_CHEF_ENGINE_H_
#define CHEF_CHEF_ENGINE_H_

/// \file
/// The CHEF engine: drives concolic iterations over an instrumented
/// interpreter and produces high-level test cases (Figure 4 of the paper).
///
/// One Engine instance corresponds to one symbolic test session. Each
/// iteration: run the interpreter under the current input assignment, let
/// the low-level runtime record the path and register alternate states,
/// classify the run's high-level path, then ask the search strategy for the
/// next alternate state, validate its path condition with the solver, and
/// re-run under the satisfying assignment.
///
/// Exploration runs in rounds: select alternate states in strategy order
/// and solve them on the session solver, run the guest under each
/// satisfying assignment, then commit the runs serially in selection order
/// and select the next round. Options::exploration_threads picks how a
/// round runs:
///
///  - 1 thread (the default): a round holds one state and the guest runs
///    live on the session runtime. This is the classic serial loop,
///    bit-identical to the pre-parallel engine for a fixed seed.
///  - N >= 2 threads: a round holds up to kRoundWidth states, worker
///    threads run their guests in parallel on private recording runtimes,
///    and the commit phase replays the recorded logs into the shared tree
///    and tracker. The width does not depend on the thread count and all
///    shared-state mutation is serial and canonically ordered, so test
///    cases, fingerprints and stats are identical for any N >= 2.

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
    /// Total solver queries issued during the session (aggregated over the
    /// session solver and every worker runtime's solver at the end of
    /// Explore so callers can total per-session work without reaching into
    /// the solvers).
    uint64_t solver_queries = 0;
    /// Queries answered by the batch-shared solver cache / satisfied by a
    /// sibling session's published model (0 unless
    /// Options::solver_options.shared_cache was set).
    uint64_t solver_shared_hits = 0;
    uint64_t solver_shared_model_hits = 0;
    /// Queries that independence slicing split into multiple slices, SAT
    /// calls served by the persistent incremental session, and CNF
    /// clauses loaded into the CDCL backend (aggregated like
    /// solver_queries).
    uint64_t solver_sliced_queries = 0;
    uint64_t solver_incremental_sat_calls = 0;
    uint64_t solver_clauses_loaded = 0;
    /// Time spent inside the solver (aggregated over all solvers; with
    /// parallel workers this is a CPU-time-like sum, not wall time).
    double solver_seconds = 0.0;
    /// True if Explore() returned because Options::stop_requested fired.
    bool stopped = false;
    double elapsed_seconds = 0.0;

    // -- Parallel exploration (all 0 / 1 when exploration_threads <= 1) ----

    /// Exploration threads actually used.
    uint32_t threads_used = 1;
    /// Parallel rounds executed.
    uint64_t rounds = 0;
    /// States claimed for parallel rounds.
    uint64_t claims = 0;
    /// Total worker-idle time at round barriers (sum over workers of the
    /// gap between finishing their last run of a round and the round
    /// completing).
    double barrier_wait_seconds = 0.0;

    struct Sample {
        double t = 0.0;
        uint64_t ll_paths = 0;
        uint64_t hl_paths = 0;
    };
    std::vector<Sample> timeline;

    /// Per-location cost/yield table (obs/attribution.h). Empty unless
    /// Options::obs.attribution was set; the engine charges steps,
    /// forks, runs, assume-failures and new fingerprints on the serial
    /// commit path (thread-count-invariant in round mode) and the
    /// solver charges wall time per query, then FinalizeStats snapshots
    /// the profiler here.
    obs::AttributionSnapshot attribution;
    /// Frontier view at session end: pending depth histogram, tree
    /// branching factor, lease ages, and per-strategy pick counts from
    /// the strategy-decision audit ring.
    obs::FrontierSnapshot frontier;
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
        /// iterations, between state-selection solver calls, and — under
        /// parallel exploration — between claims and between rounds;
        /// in-flight guest runs are never interrupted (the per-run step
        /// budget bounds them), so the overshoot is at most one run.
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
        /// share_solver_cache option is on). Note: a shared cache makes
        /// round-mode results depend on what sibling sessions have
        /// published, so cross-run bit-reproducibility only holds without
        /// one (or with a cold, private one).
        solver::Solver::Options solver_options = {};
        bool collect_timeline = true;
        /// Intra-session parallelism: number of exploration worker
        /// threads driving this session's shared execution tree. 1 (the
        /// default; 0 means the same) runs one state per round live on
        /// the session runtime, bit-identical to pre-parallel engines.
        /// >= 2 runs kRoundWidth states per round in parallel.
        uint32_t exploration_threads = 1;
        /// Cooperative cancellation hook. Checked between concolic
        /// iterations and between state-selection solver calls; under
        /// parallel exploration it is additionally polled between claims,
        /// between rounds, and by each worker before starting a queued
        /// run (so a mid-round stop lets in-flight guest runs finish,
        /// skips the rest, commits what completed, and winds down).
        /// When exploration_threads > 1 the hook must be thread-safe.
        /// When it returns true the exploration winds down and Explore()
        /// returns the test cases produced so far. Used by the
        /// exploration service to enforce service-wide wall-clock budgets
        /// and user-requested shutdown without engine internals growing
        /// any thread-awareness beyond this.
        std::function<bool()> stop_requested;
        /// Telemetry (obs/obs.h). Copied into solver_options.obs by the
        /// constructor so the session's solver shares the same registry
        /// and tracer; the engine itself emits engine/run (interpreter
        /// dispatch) and engine/select (state selection) spans plus
        /// engine.* counters, and under parallel exploration
        /// engine/parallel_run per-worker spans plus engine.parallel.*
        /// counters (states in flight, claims, rounds, round barrier
        /// wait).
        obs::ObsContext obs;
    };

    /// Outcome descriptor returned by the guest adapter after one run.
    struct GuestOutcome {
        std::string kind = "ok";
        std::string detail;
    };

    /// Executes the target program once under the given runtime; called by
    /// the engine for every concolic iteration. Under parallel exploration
    /// this is invoked concurrently on distinct runtimes, so it must not
    /// mutate shared state of its own.
    using RunFn = std::function<GuestOutcome(lowlevel::LowLevelRuntime&)>;

    /// States selected per round with exploration_threads >= 2. Fixed,
    /// so results do not depend on the thread count.
    static constexpr size_t kRoundWidth = 8;

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
    struct WorkerContext;
    struct RoundItem;
    class RoundPool;

    std::unique_ptr<cupa::SearchStrategy> MakeStrategy();
    static solver::Assignment CompleteInputsFor(
        const lowlevel::LowLevelRuntime& runtime);

    /// Runs one round item's guest live on the session runtime, feeding
    /// the tree and tracker as it goes (the one-thread round).
    void RunLive(const RunFn& run, RoundItem* item);
    /// Runs a round's guests in parallel on the workers' recording
    /// runtimes. A stop request skips the items not yet started and sets
    /// *stopped.
    void RunRecorded(const RunFn& run, std::vector<RoundItem>* round,
                     const std::vector<std::unique_ptr<WorkerContext>>& workers,
                     RoundPool& pool, bool* stopped);
    /// Claims and solves states in strategy order until the round holds
    /// \p limit items, the strategy runs dry or the wall-clock budget is
    /// spent. A stop request sets *stopped.
    void SelectRound(size_t limit, std::vector<RoundItem>* round,
                     bool* stopped);

    /// Serial commit of one run that has finished (live, or recorded and
    /// replayed here when \p replay): closes its high-level path, produces
    /// the test case or solves the assume-retry assignment, and updates
    /// stats, moving the run's results out of \p item. Returns true if the
    /// commit produced an assume-retry assignment in *retry.
    bool CommitRun(RoundItem& item, bool replay,
                   std::vector<TestCase>* test_cases,
                   solver::Assignment* retry);

    /// Charges one committed run to the attribution profiler: a step
    /// per trace entry (with discovery-parent links), the run and its
    /// fingerprint yield to the originating location, assume-failures
    /// to the violation site. Called on the serial commit path only, so
    /// the charges are thread-count-invariant in round mode. No-op
    /// without Options::obs.attribution.
    void ChargeRunAttribution(uint64_t origin_hlpc, bool new_hl_path,
                              bool assume_violated);
    /// The last high-level location of the just-committed trace (0 when
    /// the run recorded none) — the assume-violation site.
    uint64_t LastTraceLocation() const;

    /// Seconds since Explore started.
    double Elapsed() const;
    bool StopRequested() const;

    void FinalizeStats(
        const std::vector<std::unique_ptr<WorkerContext>>& workers);

    Options options_;
    Rng rng_;
    std::chrono::steady_clock::time_point start_;
    // Resolved once at construction; null when Options::obs carries no
    // registry.
    obs::Counter* m_runs_ = nullptr;
    obs::Counter* m_hl_paths_ = nullptr;
    obs::Counter* m_infeasible_ = nullptr;
    obs::Histogram* m_run_latency_ = nullptr;
    obs::Gauge* m_par_in_flight_ = nullptr;
    obs::Counter* m_par_claims_ = nullptr;
    obs::Counter* m_par_rounds_ = nullptr;
    obs::Histogram* m_par_barrier_wait_ = nullptr;
    solver::Solver solver_;
    lowlevel::ExecutionTree tree_;
    lowlevel::LowLevelRuntime runtime_;
    hll::HlpcTracker tracker_;
    std::unique_ptr<cupa::SearchStrategy> strategy_;
    EngineStats stats_;
    /// Strategy-decision audit ring (claims record strategy, hl_pc,
    /// depth); folded into stats_.frontier at FinalizeStats.
    obs::FrontierInspector frontier_inspector_;
    /// High-water mark over announced state ids: ReleaseClaim
    /// re-announces a state through the state-added hook, so fork
    /// charges fire only for ids above the mark (exactly once per
    /// registered state; the hook runs under the tree lock).
    lowlevel::StateId attr_last_fork_id_ = 0;
};

}  // namespace chef

#endif  // CHEF_CHEF_ENGINE_H_
