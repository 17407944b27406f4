#ifndef CHEF_SOLVER_SAT_H_
#define CHEF_SOLVER_SAT_H_

/// \file
/// A from-scratch CDCL SAT solver (the backend below the bit-blaster).
///
/// Implements the standard conflict-driven clause learning loop: two-watched-
/// literal propagation, 1UIP conflict analysis, VSIDS-style branching with
/// phase saving, and geometric restarts. Sized for the CNF instances produced
/// by bit-blasting path conditions over tens to hundreds of input bytes.
///
/// Data layout. Propagation dominates the solver's time (an incremental
/// session's assumptions are mostly refuted by propagation alone), so the
/// hot structures are flat:
///   - Every attached clause lives inline in one `uint32_t` arena: a header
///     word `(size << 1) | learned`, then its internal literals. A clause
///     is named by the arena offset of its header (`CRef`); watchers and
///     per-variable reasons hold these offsets.
///   - Truth values are indexed by internal literal (`2*var + negated`):
///     `ValueOf` is one load, and assigning a variable writes both
///     polarities.
///   - `CnfFormula` stores its clauses flat too, as one literal vector
///     plus clause start offsets: adding or loading a clause allocates
///     nothing beyond the amortized growth of those vectors.
///   - PurgeLearned compacts the arena in place, in clause order, and
///     remaps each locked reason from its old offset to its new one.
///
/// Bit-identity contract. The search (every decision, propagation order,
/// learned clause and therefore every model) is a function of clause order,
/// watch-list order, in-clause literal order, the VSIDS bump order and the
/// floating-point order of the purge score. Models feed the engine's
/// generated inputs and through them exploration order and fingerprints,
/// which the fixed-work benchmark guards exactly. A layout or speed change
/// here must keep all of those orders; `SatGolden.SearchIsBitIdentical` in
/// tests/sat_test.cc pins a digest of statuses, models and SatStats over
/// long capped incremental sessions and must not be re-pinned for one.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chef::solver {

/// DIMACS-style literal: +v or -v for 1-based variable v.
using Lit = int32_t;

/// Outcome of a SAT call.
enum class SatStatus {
    kSat,
    kUnsat,
    kUnknown,  ///< Resource limit exceeded.
};

/// Literals of one CnfFormula clause: a view into the formula's flat
/// literal storage, valid until the next clause is added.
class ClauseView
{
  public:
    ClauseView(const Lit* begin, const Lit* end) : begin_(begin), end_(end) {}
    const Lit* begin() const { return begin_; }
    const Lit* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    Lit operator[](size_t i) const { return begin_[i]; }

  private:
    const Lit* begin_;
    const Lit* end_;
};

/// Accumulates a CNF formula. Clauses are stored flat: the literals of
/// clause i are lits_[starts_[i], starts_[i + 1]).
class CnfFormula
{
  public:
    /// Allocates a fresh variable and returns its (positive) index.
    int NewVar() { return ++num_vars_; }

    int num_vars() const { return num_vars_; }

    /// Adds a clause given as DIMACS literals. The clause is normalized
    /// (literals sorted by variable, negative first; duplicates dropped;
    /// tautologies dropped whole); its literal order decides the watches
    /// the solver starts from. Empty clauses make the formula trivially
    /// unsatisfiable.
    void AddClause(std::vector<Lit> lits) { Add(lits.data(), lits.size()); }
    void AddUnit(Lit a) { Add(&a, 1); }
    void AddBinary(Lit a, Lit b)
    {
        Lit lits[2] = {a, b};
        Add(lits, 2);
    }
    void AddTernary(Lit a, Lit b, Lit c)
    {
        Lit lits[3] = {a, b, c};
        Add(lits, 3);
    }

    size_t num_clauses() const { return starts_.size() - 1; }
    ClauseView clause(size_t i) const
    {
        return {lits_.data() + starts_[i], lits_.data() + starts_[i + 1]};
    }
    bool trivially_unsat() const { return trivially_unsat_; }

  private:
    /// Normalizes \p lits in place and appends the clause.
    void Add(Lit* lits, size_t size);

    int num_vars_ = 0;
    bool trivially_unsat_ = false;
    std::vector<Lit> lits_;
    std::vector<uint32_t> starts_ = {0};
};

/// Solver statistics for one Solve() call.
struct SatStats {
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t conflicts = 0;
    uint64_t restarts = 0;
    uint64_t learned_clauses = 0;
    /// Learned clauses dropped by the activity-based purge
    /// (Options::max_learned_clauses).
    uint64_t purged_clauses = 0;
};

/// CDCL solver. A fresh instance is used per query.
class SatSolver
{
  public:
    struct Options {
        /// Give up after this many conflicts (0 = no limit).
        uint64_t max_conflicts = 0;
        double var_decay = 0.95;
        /// Initial restart interval in conflicts; grows geometrically.
        uint64_t restart_base = 100;
        double restart_growth = 1.5;
        /// Learned-clause cap (0 = unbounded). When the database holds
        /// this many learned clauses, the lowest-activity half is purged
        /// — essential for persistent incremental sessions, whose
        /// learned clauses would otherwise accumulate across a long
        /// session without bound. Purging never affects soundness (a
        /// learned clause is implied by the problem clauses), only how
        /// much past search effort is remembered: each purge restarts
        /// from the root level, so caps near zero degrade search badly
        /// (every conflict becomes a blind restart). Use hundreds to
        /// tens of thousands.
        size_t max_learned_clauses = 0;
    };

    SatSolver() : SatSolver(Options{}) {}
    explicit SatSolver(Options options);

    /// Solves the formula. On kSat, the model can be read via ModelValue().
    SatStatus Solve(const CnfFormula& formula);

    /// Incremental interface. The solver stays bound to one logical
    /// formula that only ever grows: each call loads the clauses appended
    /// to \p formula since the previous call — keeping the learned-clause
    /// database, variable activities and saved phases — and decides
    /// satisfiability of formula AND assumptions. Assumptions are handled
    /// Minisat-style, as forced first decisions, so learned clauses are
    /// implied by the clause database alone and stay valid across calls
    /// with different assumptions. The per-call conflict budget is
    /// Options::max_conflicts. Do not mix with the one-shot Solve() on
    /// the same instance (Solve() discards all incremental state).
    SatStatus SolveIncremental(const CnfFormula& formula,
                               const std::vector<Lit>& assumptions);

    /// Formula clauses consumed by clause loading so far (total across
    /// incremental calls; callers diff it to get per-call load counts).
    size_t loaded_clauses() const { return loaded_clauses_; }

    /// Returns the truth value of variable \p var (1-based) in the model.
    bool ModelValue(int var) const;

    const SatStats& stats() const { return stats_; }

  private:
    // Internal literal encoding: 2*var + (negated ? 1 : 0), var 0-based.
    using ILit = uint32_t;
    // Clause reference: arena offset of the clause's header word.
    using CRef = uint32_t;

    enum : uint8_t { kUndef = 2 };
    static constexpr CRef kNoClause = UINT32_MAX;

    struct Watcher {
        CRef clause;
        ILit blocker;
    };

    static ILit Encode(Lit lit);
    ILit NegateLit(ILit lit) const { return lit ^ 1; }
    uint32_t VarOf(ILit lit) const { return lit >> 1; }
    uint8_t ValueOf(ILit lit) const { return value_[lit]; }

    uint32_t ClauseSize(CRef clause) const { return arena_[clause] >> 1; }
    bool ClauseLearned(CRef clause) const { return arena_[clause] & 1; }
    ILit* ClauseLits(CRef clause) { return &arena_[clause + 1]; }
    const ILit* ClauseLits(CRef clause) const { return &arena_[clause + 1]; }

    /// Discards every clause, assignment and heuristic state (the one-shot
    /// Solve() entry point).
    void ResetState();
    /// Grows the per-variable arrays to \p num_vars (monotone).
    void GrowVars(int num_vars);
    /// Loads formula clauses [loaded_clauses_, end); root-level units go
    /// straight onto the trail. Returns false on an immediate root
    /// conflict.
    bool LoadIncrement(const CnfFormula& formula);
    /// The CDCL loop over the current clause database, with \p assumptions
    /// placed as forced first decisions.
    SatStatus Search(const std::vector<Lit>& assumptions);

    /// Appends a clause to the arena and returns its reference.
    CRef AllocClause(const ILit* lits, size_t size, bool learned);
    void AttachClause(CRef clause);
    /// True when \p clause is the reason for its first literal's current
    /// assignment (reasons always imply slot 0).
    bool Locked(CRef clause) const
    {
        return reason_[VarOf(ClauseLits(clause)[0])] == clause;
    }
    /// Drops the lowest-scoring half of the learned clauses (score: mean
    /// VSIDS activity of a clause's variables), compacts the arena and
    /// rebuilds watches and reason offsets. Requires the trail at root
    /// level with propagation complete; clauses locked as root-assignment
    /// reasons are kept.
    void PurgeLearned();
    bool Enqueue(ILit lit, CRef reason);
    CRef Propagate();
    void Analyze(CRef conflict, std::vector<ILit>* learned,
                 int* backtrack_level);
    void Backtrack(int level);
    void BumpVar(uint32_t var);
    void DecayActivities();
    ILit PickBranchLit();
    bool AllAssigned() const;

    // Activity-ordered branching heap (indexed max-heap). Invariant:
    // every unassigned variable is in the heap; assigned variables may
    // linger and are skipped on pop. Keeps decisions O(log V) even when
    // the incremental session's variable count grows across queries.
    void HeapUp(size_t index);
    void HeapDown(size_t index);
    void HeapInsert(uint32_t var);
    uint32_t HeapPopMax();

    Options options_;
    SatStats stats_;

    /// Formula clauses consumed so far (incremental loading cursor).
    size_t loaded_clauses_ = 0;
    /// Latched when the clause database itself (no assumptions) is proven
    /// unsatisfiable; every later call answers kUnsat immediately.
    bool root_unsat_ = false;

    int num_vars_ = 0;
    /// Learned clauses currently in the arena (purge trigger gauge).
    size_t num_learned_ = 0;
    /// Clause arena: per clause a header word (size << 1) | learned, then
    /// its literals. Clauses appear in the order they were added.
    std::vector<uint32_t> arena_;
    std::vector<std::vector<Watcher>> watches_;  // indexed by ILit
    std::vector<uint8_t> value_;                 // per ILit: 0/1/kUndef
    std::vector<uint8_t> phase_;                 // saved phase per var
    std::vector<CRef> reason_;                   // per var, or kNoClause
    std::vector<int32_t> level_;
    std::vector<ILit> trail_;
    std::vector<size_t> trail_limits_;
    size_t propagate_head_ = 0;
    std::vector<double> activity_;
    double activity_inc_ = 1.0;
    std::vector<uint8_t> seen_;
    std::vector<uint32_t> heap_;     // var indices, max activity at root
    std::vector<int32_t> heap_pos_;  // var -> heap index, -1 if absent
};

}  // namespace chef::solver

#endif  // CHEF_SOLVER_SAT_H_
