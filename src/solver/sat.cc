#include "solver/sat.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

namespace chef::solver {

void
CnfFormula::Add(Lit* lits, size_t size)
{
    // Normalize: sort by variable (negative literal first), drop duplicate
    // literals; detect tautologies.
    std::sort(lits, lits + size,
              [](Lit a, Lit b) { return std::abs(a) < std::abs(b) ||
                                        (std::abs(a) == std::abs(b) && a < b); });
    const size_t start = lits_.size();
    for (size_t i = 0; i < size; ++i) {
        CHEF_CHECK(lits[i] != 0 && std::abs(lits[i]) <= num_vars_);
        if (i > 0 && lits[i] == lits[i - 1]) {
            continue;  // Duplicate literal.
        }
        if (i > 0 && lits[i] == -lits[i - 1]) {
            lits_.resize(start);
            return;  // Tautology; clause is always satisfied.
        }
        lits_.push_back(lits[i]);
    }
    if (lits_.size() == start) {
        trivially_unsat_ = true;
        return;
    }
    starts_.push_back(static_cast<uint32_t>(lits_.size()));
}

SatSolver::SatSolver(Options options) : options_(options) {}

SatSolver::ILit
SatSolver::Encode(Lit lit)
{
    CHEF_CHECK(lit != 0);
    const uint32_t var = static_cast<uint32_t>(std::abs(lit)) - 1;
    return (var << 1) | (lit < 0 ? 1u : 0u);
}

SatSolver::CRef
SatSolver::AllocClause(const ILit* lits, size_t size, bool learned)
{
    CHEF_CHECK(size >= 2 && arena_.size() + 1 + size < kNoClause);
    const auto clause = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<uint32_t>(size << 1) | (learned ? 1u : 0u));
    arena_.insert(arena_.end(), lits, lits + size);
    return clause;
}

void
SatSolver::AttachClause(CRef clause)
{
    const ILit* lits = ClauseLits(clause);
    watches_[NegateLit(lits[0])].push_back({clause, lits[1]});
    watches_[NegateLit(lits[1])].push_back({clause, lits[0]});
}

bool
SatSolver::Enqueue(ILit lit, CRef reason)
{
    const uint8_t value = ValueOf(lit);
    if (value != kUndef) {
        return value == 1;
    }
    const uint32_t var = VarOf(lit);
    value_[lit] = 1;
    value_[NegateLit(lit)] = 0;
    phase_[var] = static_cast<uint8_t>(1 ^ (lit & 1));
    reason_[var] = reason;
    level_[var] = static_cast<int32_t>(trail_limits_.size());
    trail_.push_back(lit);
    return true;
}

SatSolver::CRef
SatSolver::Propagate()
{
    while (propagate_head_ < trail_.size()) {
        const ILit lit = trail_[propagate_head_++];
        const ILit false_lit = NegateLit(lit);
        ++stats_.propagations;
        // Raw pointers stay valid: clauses never move during propagation,
        // and a watcher only ever moves to another literal's list.
        std::vector<Watcher>& watch_list = watches_[lit];
        Watcher* const end = watch_list.data() + watch_list.size();
        Watcher* keep = watch_list.data();
        for (Watcher* it = watch_list.data(); it != end; ++it) {
            const Watcher watcher = *it;
            // Fast path: the blocker literal is already true.
            if (ValueOf(watcher.blocker) == 1) {
                *keep++ = watcher;
                continue;
            }
            ILit* const lits = ClauseLits(watcher.clause);
            // Ensure the falsified literal is in slot 1.
            if (lits[0] == false_lit) {
                std::swap(lits[0], lits[1]);
            }
            const ILit first = lits[0];
            if (first != watcher.blocker && ValueOf(first) == 1) {
                *keep++ = {watcher.clause, first};
                continue;
            }
            // Look for a new literal to watch.
            const uint32_t size = ClauseSize(watcher.clause);
            uint32_t k = 2;
            while (k < size && ValueOf(lits[k]) == 0) {
                ++k;
            }
            if (k < size) {
                std::swap(lits[1], lits[k]);
                watches_[NegateLit(lits[1])].push_back(
                    {watcher.clause, first});
                continue;  // This watcher moves to another list.
            }
            // Clause is unit or conflicting.
            *keep++ = {watcher.clause, first};
            if (!Enqueue(first, watcher.clause)) {
                // Conflict: restore the remaining watchers and report.
                keep = std::copy(it + 1, end, keep);
                watch_list.resize(
                    static_cast<size_t>(keep - watch_list.data()));
                propagate_head_ = trail_.size();
                return watcher.clause;
            }
        }
        watch_list.resize(static_cast<size_t>(keep - watch_list.data()));
    }
    return kNoClause;
}

void
SatSolver::Analyze(CRef conflict, std::vector<ILit>* learned,
                   int* backtrack_level)
{
    learned->clear();
    learned->push_back(0);  // Placeholder for the asserting literal.

    int counter = 0;
    ILit asserting = 0;
    bool first_round = true;
    CRef clause = conflict;
    size_t trail_pos = trail_.size();
    const int current_level = static_cast<int>(trail_limits_.size());

    for (;;) {
        CHEF_CHECK(clause != kNoClause);
        const ILit* lits = ClauseLits(clause);
        const uint32_t size = ClauseSize(clause);
        // Skip lits[0] on non-conflict rounds: it is the asserting literal
        // whose reason we are expanding.
        const uint32_t start = first_round ? 0 : 1;
        first_round = false;
        for (uint32_t i = start; i < size; ++i) {
            const ILit q = lits[i];
            const uint32_t var = VarOf(q);
            if (seen_[var] || level_[var] == 0) {
                continue;
            }
            seen_[var] = 1;
            BumpVar(var);
            if (level_[var] == current_level) {
                ++counter;
            } else {
                learned->push_back(q);
            }
        }
        // Find the next literal on the trail to expand.
        do {
            CHEF_CHECK(trail_pos > 0);
            --trail_pos;
        } while (!seen_[VarOf(trail_[trail_pos])]);
        asserting = trail_[trail_pos];
        const uint32_t var = VarOf(asserting);
        seen_[var] = 0;
        --counter;
        if (counter == 0) {
            break;
        }
        clause = reason_[var];
    }
    (*learned)[0] = NegateLit(asserting);

    // Clear the seen flags for the learned clause literals.
    for (size_t i = 1; i < learned->size(); ++i) {
        seen_[VarOf((*learned)[i])] = 0;
    }

    // Compute the backtrack level: the highest level among the non-
    // asserting literals.
    if (learned->size() == 1) {
        *backtrack_level = 0;
    } else {
        size_t max_index = 1;
        for (size_t i = 2; i < learned->size(); ++i) {
            if (level_[VarOf((*learned)[i])] >
                level_[VarOf((*learned)[max_index])]) {
                max_index = i;
            }
        }
        std::swap((*learned)[1], (*learned)[max_index]);
        *backtrack_level = level_[VarOf((*learned)[1])];
    }
}

void
SatSolver::Backtrack(int target_level)
{
    if (static_cast<int>(trail_limits_.size()) <= target_level) {
        return;
    }
    const size_t new_size = trail_limits_[target_level];
    for (size_t i = trail_.size(); i > new_size; --i) {
        const ILit lit = trail_[i - 1];
        const uint32_t var = VarOf(lit);
        value_[lit] = kUndef;
        value_[NegateLit(lit)] = kUndef;
        reason_[var] = kNoClause;
        HeapInsert(var);
    }
    trail_.resize(new_size);
    trail_limits_.resize(target_level);
    propagate_head_ = new_size;
}

void
SatSolver::Reset()
{
    // Empty each watch list but keep it, with its capacity: a session
    // that reloads a similar formula reuses the lists' storage. Lists
    // past 2 * num_vars_ are empty already (see GrowVars).
    for (size_t i = 0; i < 2 * static_cast<size_t>(num_vars_); ++i) {
        watches_[i].clear();
    }
    loaded_clauses_ = 0;
    root_unsat_ = false;
    num_vars_ = 0;
    num_learned_ = 0;
    arena_.clear();
    value_.clear();
    phase_.clear();
    reason_.clear();
    level_.clear();
    activity_.clear();
    seen_.clear();
    heap_.clear();
    heap_pos_.clear();
    trail_.clear();
    trail_limits_.clear();
    propagate_head_ = 0;
    activity_inc_ = 1.0;
}

void
SatSolver::GrowVars(int num_vars)
{
    CHEF_CHECK(num_vars >= num_vars_);
    const int old_vars = num_vars_;
    num_vars_ = num_vars;
    value_.resize(2 * static_cast<size_t>(num_vars_), kUndef);
    phase_.resize(num_vars_, 0);
    reason_.resize(num_vars_, kNoClause);
    level_.resize(num_vars_, 0);
    activity_.resize(num_vars_, 0.0);
    seen_.resize(num_vars_, 0);
    heap_pos_.resize(num_vars_, -1);
    // Grow only: lists past 2 * num_vars_ are empty leftovers of a
    // larger formula before a reset, kept for their capacity.
    if (watches_.size() < 2 * static_cast<size_t>(num_vars_)) {
        watches_.resize(2 * static_cast<size_t>(num_vars_));
    }
    for (int var = old_vars; var < num_vars_; ++var) {
        HeapInsert(static_cast<uint32_t>(var));
    }
}

void
SatSolver::BumpVar(uint32_t var)
{
    activity_[var] += activity_inc_;
    if (activity_[var] > 1e100) {
        // Uniform rescale preserves the heap order.
        for (double& activity : activity_) {
            activity *= 1e-100;
        }
        activity_inc_ *= 1e-100;
    }
    if (heap_pos_[var] >= 0) {
        HeapUp(static_cast<size_t>(heap_pos_[var]));
    }
}

void
SatSolver::DecayActivities()
{
    activity_inc_ /= options_.var_decay;
}

void
SatSolver::HeapUp(size_t index)
{
    const uint32_t var = heap_[index];
    while (index > 0) {
        const size_t parent = (index - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[var]) {
            break;
        }
        heap_[index] = heap_[parent];
        heap_pos_[heap_[index]] = static_cast<int32_t>(index);
        index = parent;
    }
    heap_[index] = var;
    heap_pos_[var] = static_cast<int32_t>(index);
}

void
SatSolver::HeapDown(size_t index)
{
    const uint32_t var = heap_[index];
    for (;;) {
        size_t child = 2 * index + 1;
        if (child >= heap_.size()) {
            break;
        }
        if (child + 1 < heap_.size() &&
            activity_[heap_[child + 1]] > activity_[heap_[child]]) {
            ++child;
        }
        if (activity_[heap_[child]] <= activity_[var]) {
            break;
        }
        heap_[index] = heap_[child];
        heap_pos_[heap_[index]] = static_cast<int32_t>(index);
        index = child;
    }
    heap_[index] = var;
    heap_pos_[var] = static_cast<int32_t>(index);
}

void
SatSolver::HeapInsert(uint32_t var)
{
    if (heap_pos_[var] >= 0) {
        return;
    }
    heap_.push_back(var);
    heap_pos_[var] = static_cast<int32_t>(heap_.size() - 1);
    HeapUp(heap_.size() - 1);
}

uint32_t
SatSolver::HeapPopMax()
{
    const uint32_t top = heap_[0];
    heap_pos_[top] = -1;
    const uint32_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[last] = 0;
        HeapDown(0);
    }
    return top;
}

SatSolver::ILit
SatSolver::PickBranchLit()
{
    // Pop assigned leftovers until an unassigned variable surfaces; every
    // unassigned variable is in the heap by invariant.
    for (;;) {
        CHEF_CHECK(!heap_.empty());
        const uint32_t var = HeapPopMax();
        if (ValueOf(var << 1) != kUndef) {
            continue;
        }
        // Phase saving: re-use the last assigned polarity.
        return (var << 1) | (phase_[var] == 1 ? 0u : 1u);
    }
}

bool
SatSolver::AllAssigned() const
{
    return trail_.size() == static_cast<size_t>(num_vars_);
}

void
SatSolver::PurgeLearned()
{
    CHEF_CHECK(trail_limits_.empty());

    // Score learned clauses by the mean VSIDS activity of their
    // variables: a clause over currently hot variables is the one likely
    // to prune again, and normalizing by length keeps a long stale
    // clause from outscoring a tight one by volume. The newest clause
    // (this conflict's lesson) is exempt so a purge can never erase the
    // conflict that triggered it, and clauses locked as the reason for a
    // root assignment must survive (conflict analysis may still expand
    // them).
    struct Candidate {
        CRef clause;
        double score;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(num_learned_);
    for (CRef clause = 0; clause < arena_.size();) {
        const uint32_t size = ClauseSize(clause);
        const CRef next = clause + 1 + size;
        if (next == arena_.size()) {
            break;  // The newest clause.
        }
        if (ClauseLearned(clause) && !Locked(clause)) {
            const ILit* lits = ClauseLits(clause);
            double score = 0.0;
            for (uint32_t k = 0; k < size; ++k) {
                score += activity_[VarOf(lits[k])];
            }
            candidates.push_back(
                {clause, score / static_cast<double>(size)});
        }
        clause = next;
    }
    const size_t target = std::min(candidates.size(), num_learned_ / 2);
    if (target == 0) {
        return;
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                  return a.score < b.score ||
                         (a.score == b.score && a.clause < b.clause);
              });
    std::vector<CRef> dropped(target);
    for (size_t i = 0; i < target; ++i) {
        dropped[i] = candidates[i].clause;
    }
    std::sort(dropped.begin(), dropped.end());

    // Compact the arena in place, in clause order. A surviving clause
    // only moves down, so a reason already remapped to a new offset can
    // never be mistaken for a later clause's old one.
    CRef out = 0;
    size_t next_drop = 0;
    for (CRef clause = 0; clause < arena_.size();) {
        const uint32_t words = 1 + ClauseSize(clause);
        if (next_drop < dropped.size() && dropped[next_drop] == clause) {
            ++next_drop;
            clause += words;
            continue;
        }
        if (Locked(clause)) {
            reason_[VarOf(ClauseLits(clause)[0])] = out;
        }
        if (out != clause) {
            std::copy(arena_.begin() + clause,
                      arena_.begin() + clause + words,
                      arena_.begin() + out);
        }
        out += words;
        clause += words;
    }
    arena_.resize(out);
    num_learned_ -= target;
    stats_.purged_clauses += target;

    // Rebuild the watch lists. Watchers only fire on future enqueues, so
    // (as in LoadClause) each clause must watch two literals that are
    // non-false under the surviving root assignment; a clause with only
    // one such literal is permanently satisfied at root — propagation ran
    // to fixpoint before the purge, so that literal can only be true —
    // and needs no watchers at all.
    for (std::vector<Watcher>& list : watches_) {
        list.clear();
    }
    for (CRef clause = 0; clause < arena_.size();
         clause += 1 + ClauseSize(clause)) {
        ILit* const lits = ClauseLits(clause);
        const uint32_t size = ClauseSize(clause);
        uint32_t nonfalse = 0;
        for (uint32_t k = 0; k < size && nonfalse < 2; ++k) {
            if (ValueOf(lits[k]) != 0) {
                std::swap(lits[nonfalse], lits[k]);
                ++nonfalse;
            }
        }
        if (nonfalse >= 2) {
            AttachClause(clause);
        } else {
            CHEF_CHECK(nonfalse == 1 && ValueOf(lits[0]) == 1);
        }
    }
}

void
SatSolver::BeginIncrement(int num_vars)
{
    Backtrack(0);
    GrowVars(num_vars);
}

bool
SatSolver::LoadClause(const Lit* lits, size_t size)
{
    CHEF_CHECK(trail_limits_.empty());
    if (root_unsat_) {
        return false;
    }
    ++loaded_clauses_;
    if (size == 0) {
        root_unsat_ = true;
        return false;
    }
    for (size_t k = 0; k < size; ++k) {
        CHEF_CHECK(std::abs(lits[k]) <= num_vars_);
    }
    if (size == 1) {
        // Root-level unit: permanently true.
        if (!Enqueue(Encode(lits[0]), kNoClause)) {
            root_unsat_ = true;
            return false;
        }
        return true;
    }
    std::vector<ILit>& internal = load_scratch_;
    internal.clear();
    for (size_t k = 0; k < size; ++k) {
        internal.push_back(Encode(lits[k]));
    }
    // Root assignments are permanent, and watchers only fire on
    // *future* enqueues — a clause attached with already-falsified
    // watched literals would never propagate. Move two non-false
    // literals (under the current root assignment) into the watch
    // slots; clauses already unit or conflicting at load time are
    // resolved here instead.
    size_t nonfalse = 0;
    for (size_t k = 0; k < size && nonfalse < 2; ++k) {
        if (ValueOf(internal[k]) != 0) {
            std::swap(internal[nonfalse], internal[k]);
            ++nonfalse;
        }
    }
    if (nonfalse == 0) {
        // Every literal is root-false: the database is unsat.
        root_unsat_ = true;
        return false;
    }
    if (nonfalse == 1) {
        // Unit under the root assignment: its surviving literal is
        // forced (or already true, making the clause redundant
        // forever — no need to attach it either way).
        if (ValueOf(internal[0]) == kUndef) {
            const CRef reason = AllocClause(internal.data(), size, false);
            CHEF_CHECK(Enqueue(internal[0], reason));
        }
        return true;
    }
    AttachClause(AllocClause(internal.data(), size, false));
    // Bump variables that appear in clauses so branching prefers
    // constrained variables.
    for (size_t k = 0; k < size; ++k) {
        const uint32_t var = static_cast<uint32_t>(std::abs(lits[k])) - 1;
        activity_[var] += 1.0;
        if (heap_pos_[var] >= 0) {
            HeapUp(static_cast<size_t>(heap_pos_[var]));
        }
    }
    return true;
}

SatStatus
SatSolver::Search(const std::vector<Lit>& assumptions)
{
    const uint64_t conflicts_at_entry = stats_.conflicts;
    uint64_t restart_limit = options_.restart_base;
    uint64_t conflicts_since_restart = 0;
    std::vector<ILit> learned;

    for (;;) {
        const CRef conflict = Propagate();
        if (conflict != kNoClause) {
            ++stats_.conflicts;
            ++conflicts_since_restart;
            if (trail_limits_.empty()) {
                root_unsat_ = true;
                return SatStatus::kUnsat;
            }
            if (options_.max_conflicts != 0 &&
                stats_.conflicts - conflicts_at_entry >=
                    options_.max_conflicts) {
                return SatStatus::kUnknown;
            }
            int backtrack_level = 0;
            Analyze(conflict, &learned, &backtrack_level);
            Backtrack(backtrack_level);
            if (learned.size() == 1) {
                CHEF_CHECK(Enqueue(learned[0], kNoClause));
            } else {
                const CRef clause =
                    AllocClause(learned.data(), learned.size(), true);
                ++stats_.learned_clauses;
                ++num_learned_;
                AttachClause(clause);
                CHEF_CHECK(Enqueue(learned[0], clause));
            }
            DecayActivities();
            if (options_.max_learned_clauses != 0 &&
                num_learned_ >= options_.max_learned_clauses) {
                // Purging needs the root level; the backtrack discards
                // this conflict's asserting assignment (the clause that
                // implies it is kept), which is the same price a restart
                // pays.
                Backtrack(0);
                PurgeLearned();
            }
            continue;
        }
        // Place pending assumptions as forced decisions before testing
        // for completion: a full assignment that falsifies an unplaced
        // assumption must still answer kUnsat.
        if (trail_limits_.size() < assumptions.size()) {
            const ILit next =
                Encode(assumptions[trail_limits_.size()]);
            const uint8_t value = ValueOf(next);
            if (value == 0) {
                // The clause database forces this assumption false:
                // unsat under the assumptions (the database itself may
                // still be satisfiable, so root_unsat_ stays clear).
                return SatStatus::kUnsat;
            }
            trail_limits_.push_back(trail_.size());
            if (value == kUndef) {
                CHEF_CHECK(Enqueue(next, kNoClause));
            }
            continue;
        }
        if (AllAssigned()) {
            return SatStatus::kSat;
        }
        if (conflicts_since_restart >= restart_limit) {
            ++stats_.restarts;
            conflicts_since_restart = 0;
            restart_limit = static_cast<uint64_t>(
                static_cast<double>(restart_limit) * kRestartGrowth);
            // Restarting pops the assumption levels too; the decision
            // loop above re-places them.
            Backtrack(0);
            continue;
        }
        ++stats_.decisions;
        trail_limits_.push_back(trail_.size());
        CHEF_CHECK(Enqueue(PickBranchLit(), kNoClause));
    }
}

SatStatus
SatSolver::Solve(const CnfFormula& formula)
{
    Reset();
    return SolveIncremental(formula, {});
}

SatStatus
SatSolver::SolveIncremental(const CnfFormula& formula,
                            const std::vector<Lit>& assumptions)
{
    if (root_unsat_ || formula.trivially_unsat()) {
        root_unsat_ = true;
        return SatStatus::kUnsat;
    }
    BeginIncrement(formula.num_vars());
    while (loaded_clauses_ < formula.num_clauses()) {
        const ClauseView clause = formula.clause(loaded_clauses_);
        if (!LoadClause(clause.begin(), clause.size())) {
            return SatStatus::kUnsat;
        }
    }
    return SolveAssuming(assumptions);
}

SatStatus
SatSolver::SolveAssuming(const std::vector<Lit>& assumptions)
{
    if (root_unsat_) {
        return SatStatus::kUnsat;
    }
    Backtrack(0);
    if (Propagate() != kNoClause) {
        root_unsat_ = true;
        return SatStatus::kUnsat;
    }
    return Search(assumptions);
}

bool
SatSolver::ModelValue(int var) const
{
    CHEF_CHECK(var >= 1 && var <= num_vars_);
    return ValueOf(static_cast<ILit>(var - 1) << 1) == 1;
}

}  // namespace chef::solver
