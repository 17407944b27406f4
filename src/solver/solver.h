#ifndef CHEF_SOLVER_SOLVER_H_
#define CHEF_SOLVER_SOLVER_H_

/// \file
/// Constraint solver facade: the engine-facing entry point.
///
/// Wraps simplification, independence slicing, bit-blasting and the CDCL
/// backend behind a single Solve() call, and adds two KLEE-style
/// accelerations that matter for concolic workloads: an exact-match query
/// cache, and counterexample reuse (recent satisfying models are tried
/// against a new query before invoking the SAT solver; concolic negation
/// queries are frequently satisfied by a sibling path's model).
///
/// A query is first partitioned into variable-disjoint slices
/// (solver/independence.h); each slice then runs the cache pipeline on
/// its own, so a path prefix that was proven satisfiable once is answered
/// from the per-slice cache while only the slice containing the freshly
/// negated branch condition does real work. Slices that miss every cache
/// reach the SAT backend through a persistent incremental session: one
/// BitBlaster per Solver, so a shared prefix node is blasted once per
/// session, and one CDCL instance queried under assumptions. The CDCL
/// instance does not hold the whole session's formula, only a *loaded
/// set* of gate definitions (see CnfFormula) closed under the variables
/// they name. Each call walks the *cone* of its assumption literals (the
/// definitions they reach), entering loaded definitions only when the
/// rebuild test below needs the cone's full size, and hands the cone's
/// missing definitions to the instance clause by clause while the loaded
/// set stays within twice the cone, so nested cones keep their learned
/// clauses; otherwise it rebuilds the instance from the cone alone, so a
/// query never propagates through circuits of unrelated past queries.
///
/// Each slice's lookup order is: the Solver's own query cache, its
/// recent-model window, SAT. Both caches belong to one Solver (one
/// session); nothing is shared across sessions, so a session's answers
/// do not depend on what its siblings solved. Query keys come from
/// cache/canonical.h; slicing shrinks those keys, which is what lifts the
/// hit rate.

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "solver/bitblast.h"
#include "solver/expr.h"
#include "solver/sat.h"

namespace chef::solver {

/// Result of a satisfiability query.
enum class QueryResult {
    kSat,
    kUnsat,
    kUnknown,  ///< Backend resource limit exceeded.
};

/// Aggregate statistics across a Solver's lifetime.
///
/// Outcome counters (sat/unsat/unknown_results) count top-level Solve()
/// calls. Pipeline counters (cache_hits, model_reuse_hits, sat_calls)
/// count per *slice*, since each independent slice runs the cache
/// pipeline on its own — so they can exceed `queries`.
struct SolverStats {
    uint64_t queries = 0;
    uint64_t cache_hits = 0;
    uint64_t model_reuse_hits = 0;
    /// Queries that split into more than one independent slice, and the
    /// total number of slices those queries produced.
    uint64_t sliced_queries = 0;
    uint64_t slices_solved = 0;
    uint64_t sat_calls = 0;
    /// SAT calls served by the persistent incremental session (subset of
    /// sat_calls; the remainder built a fresh CNF + CDCL instance).
    uint64_t incremental_sat_calls = 0;
    uint64_t sat_results = 0;
    uint64_t unsat_results = 0;
    uint64_t unknown_results = 0;
    /// CNF variables/clauses *built* for SAT calls. Incremental calls add
    /// only the nodes the session had not blasted before.
    uint64_t cnf_vars = 0;
    uint64_t cnf_clauses = 0;
    /// Clauses loaded into a CDCL instance across all SAT calls: the
    /// whole formula per fresh call; per incremental call, the cone
    /// definitions appended to the loaded set, or the whole cone again
    /// after a rebuild.
    uint64_t clauses_loaded = 0;
    /// Incremental calls whose cone replaced a non-empty loaded set
    /// instead of extending it (a subset of incremental_sat_calls).
    uint64_t sat_rebuilds = 0;
    /// Unit propagations the CDCL backend performed across SAT calls
    /// (SatStats::propagations deltas): the cost that loading only a
    /// query's cone keeps proportional to that cone.
    uint64_t sat_propagations = 0;
    /// Approximate bytes held by the query cache (gauge; bounded by
    /// Options::max_cache_bytes via LRU eviction).
    uint64_t cache_bytes = 0;
    /// Query cache entries evicted to respect the byte budget.
    uint64_t cache_evictions = 0;
    /// Learned clauses dropped by the SAT backend's activity-based purge
    /// (Options::max_learned_clauses); bounds the persistent incremental
    /// session's memory over a long session.
    uint64_t learned_clauses_purged = 0;
    /// Wall time spent inside Solve(), including cache probes and SAT.
    double solve_seconds = 0.0;
};

/// Constraint solver over bitvector assertions.
class Solver
{
  public:
    /// Models kept for model reuse (the most recent ones).
    static constexpr size_t kModelReuseWindow = 16;
    /// Conflict budget per SAT call.
    static constexpr uint64_t kMaxConflicts = 2'000'000;

    struct Options {
        bool enable_query_cache = true;
        bool enable_model_reuse = true;
        /// Partition each query into variable-disjoint slices and run the
        /// cache pipeline per slice (independence optimization). Sound
        /// for sat/unsat outcomes; satisfying models may differ from the
        /// unsliced pipeline's (PR 2 determinism contract).
        bool enable_independence_slicing = true;
        /// Solve cache-missing slices through a persistent incremental
        /// session (one BitBlaster + CDCL instance per Solver, queried
        /// under assumptions over the query's cone; see SatSession)
        /// instead of re-blasting the whole slice and running a fresh
        /// CDCL instance per call.
        bool enable_incremental_sat = true;
        /// Byte budget for the query cache (approximate, see
        /// cache::QueryEntryBytes); least-recently-used entries are
        /// evicted beyond it. 0 = unbounded.
        size_t max_cache_bytes = 8u << 20;
        /// Learned-clause cap for the SAT backend (0 = unbounded). The
        /// persistent incremental session keeps learned clauses across
        /// every query of a Solver's lifetime; without a cap a long
        /// session's clause database grows without bound. At the cap the
        /// backend purges the lowest-activity half
        /// (SolverStats::learned_clauses_purged counts the drops).
        size_t max_learned_clauses = 50'000;
        /// Telemetry (obs/obs.h). Default-disabled; when set, the solver
        /// mirrors its hot counters into the registry (handles resolved
        /// once at construction) and emits solver/solve, solver/leaf and
        /// solver/sat trace spans.
        obs::ObsContext obs;
    };

    Solver() : Solver(Options{}) {}
    explicit Solver(Options options);

    /// Checks the conjunction of \p assertions (width-1 expressions). On
    /// kSat fills \p model (if non-null) with an explicit value for every
    /// variable appearing in the assertions — including variables a cache
    /// or reuse layer satisfied by absence, which are zero-filled so
    /// callers with non-zero defaults (the engine) stay sound. Variables
    /// not appearing at all are unconstrained and omitted.
    QueryResult Solve(const std::vector<ExprRef>& assertions,
                      Assignment* model);

    /// Computes the maximum value the expression can take under the given
    /// assertions (the paper's upper_bound API used by the symbolic-aware
    /// allocator). Uses binary search over Solve() calls. Returns false if
    /// the assertions themselves are unsatisfiable.
    bool UpperBound(const std::vector<ExprRef>& assertions,
                    const ExprRef& value, uint64_t* bound);

    const SolverStats& stats() const { return stats_; }
    const Options& options() const { return options_; }

  private:
    struct CacheEntry {
        QueryResult result;
        /// Satisfying assignment; populated only for kSat results.
        Assignment model;
        /// Assertions sorted by hash, kept to reject hash collisions.
        std::vector<ExprRef> key_assertions;
        /// Position in the LRU list (front = most recent).
        std::list<uint64_t>::iterator lru_it;
    };

    /// The persistent incremental backend, created lazily on the first
    /// SAT call when Options::enable_incremental_sat is set.
    ///
    /// The blaster memo and its formula `cnf` only grow: every node is
    /// blasted once per session. The CDCL instance `sat` holds only the
    /// *loaded set*: some of `cnf`'s definitions, densely renumbered
    /// (`dense`, `loaded_vars`). The set is closed: a loaded definition
    /// names only loaded variables. LoadCone() walks the cone of a call's
    /// assumption literals, entering loaded definitions only when the
    /// rebuild test needs the cone's full size, and either hands the missing definitions to `sat` (BeginIncrement,
    /// LoadClause), keeping learned clauses, or, when the loaded set would
    /// grow past kMaxLoadedPerCone times the cone, resets `sat` and loads
    /// the cone alone. No second CnfFormula holds the loaded clauses; each
    /// is renumbered into a scratch buffer and loaded straight away.
    /// Nested cones (a path prefix that grows) keep extending one clause
    /// database; unrelated cones stop paying propagation for each other's
    /// circuits.
    struct SatSession {
        /// A rebuild happens when the loaded set would exceed this many
        /// times the call's cone, counted in variables.
        static constexpr size_t kMaxLoadedPerCone = 2;

        CnfFormula cnf;
        BitBlaster blaster;
        SatSolver sat;
        /// Session variable -> loaded variable; 0 when not loaded.
        std::vector<int> dense;
        /// Loaded variable v is session variable loaded_vars[v - 1].
        std::vector<int> loaded_vars;
        /// Per session variable, the cone walk that last reached it.
        std::vector<uint32_t> stamp;
        uint32_t epoch = 0;
        // Scratch of LoadCone, kept for its capacity.
        std::vector<int> cone;
        std::vector<int> stack;
        std::vector<Lit> clause;

        SatSession(const SatSolver::Options& sat_options)
            : blaster(&cnf), sat(sat_options) {}

        /// Makes the loaded set cover the cone of \p assumptions (session
        /// literals, rewritten in place to loaded literals), loading the
        /// missing definitions into `sat` in session order. Sets
        /// \p rebuilt when it discarded a non-empty loaded set. Returns the
        /// number of clauses it loaded.
        size_t LoadCone(std::vector<Lit>* assumptions, bool* rebuilt);

        /// Value of blasted input \p var_id in the last kSat model.
        /// Bits outside the loaded set are unconstrained and read 0.
        uint64_t ModelValue(uint32_t var_id) const;
    };

    /// Runs the cache pipeline for one independent slice (or for the
    /// whole query when slicing is off or found a single slice): query
    /// cache, model reuse, SAT. Does not touch the outcome counters —
    /// Solve() counts those once per top-level query.
    QueryResult SolveLeaf(const std::vector<ExprRef>& live,
                          Assignment* model);

    /// The SAT step of SolveLeaf: incremental session or fresh blast.
    QueryResult SolveViaSat(const std::vector<ExprRef>& live, uint64_t key,
                            const std::vector<ExprRef>& sorted_live,
                            Assignment* model);

    /// Inserts into the query cache (no-op when disabled); stores
    /// the model only for kSat, maintains the cache_bytes gauge and LRU
    /// order, and evicts beyond Options::max_cache_bytes.
    void StoreInCache(uint64_t key, QueryResult result,
                      const Assignment& model,
                      const std::vector<ExprRef>& sorted_assertions);

    /// Pushes a satisfying model into the bounded recent-model window
    /// (no-op when model reuse is disabled).
    void RememberModel(const Assignment& model);

    Options options_;
    SolverStats stats_;
    // Metric handles, resolved once at construction (null when
    // Options::obs carries no registry) so the hot path never touches
    // the registry's name map.
    obs::Counter* m_queries_ = nullptr;
    obs::Counter* m_cache_hits_ = nullptr;
    obs::Counter* m_model_reuse_hits_ = nullptr;
    obs::Counter* m_sat_calls_ = nullptr;
    obs::Counter* m_incremental_sat_calls_ = nullptr;
    obs::Counter* m_sliced_queries_ = nullptr;
    obs::Counter* m_clauses_loaded_ = nullptr;
    obs::Counter* m_sat_propagations_ = nullptr;
    obs::Histogram* m_solve_latency_ = nullptr;
    obs::Histogram* m_sat_latency_ = nullptr;
    std::unordered_map<uint64_t, CacheEntry> cache_;
    /// Cache keys, most-recently-used first.
    std::list<uint64_t> lru_;
    std::deque<Assignment> recent_models_;
    std::unique_ptr<SatSession> session_;
    /// A query's variable ids; scratch, cleared before each use.
    std::vector<uint32_t> var_ids_;
};

}  // namespace chef::solver

#endif  // CHEF_SOLVER_SOLVER_H_
