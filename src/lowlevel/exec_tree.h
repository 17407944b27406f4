#ifndef CHEF_LOWLEVEL_EXEC_TREE_H_
#define CHEF_LOWLEVEL_EXEC_TREE_H_

/// \file
/// The low-level symbolic execution tree.
///
/// Nodes are symbolic branch points encountered during concolic runs, in the
/// order a deterministic execution meets them (Figure 1 of the paper). Each
/// direction of a node is either unexplored, explored by some completed run,
/// pending as a registered alternate state, or proven infeasible. Alternate
/// states carry the bookkeeping CUPA needs: the forking low-level PC, the
/// static and dynamic high-level PC at the fork, and the fork weight.
///
/// Concurrency model: one ExecutionTree may be shared by several exploration
/// workers. All shared structures (nodes, the pending pool, the in-flight
/// lease set) are guarded by an internal lock; per-run traversal state lives
/// in a Cursor owned by each worker's runtime, so concurrent runs never
/// share mutable cursor state. A pending state is *leased* to a worker via
/// ClaimState (which runs the strategy's selection under the tree lock, so
/// selection and removal are atomic); leased states are out of the pending
/// pool and therefore excluded from further selection until the worker
/// either commits the run that explores them (CompleteClaim), proves them
/// infeasible (MarkInfeasible), or hands them back (ReleaseClaim).

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "solver/expr.h"

namespace chef::lowlevel {

/// Identifier of a pending alternate state.
using StateId = uint64_t;

/// A not-yet-explored branch direction, scheduled for exploration.
/// This is the paper's "symbolic execution state" from the point of view of
/// the search strategy.
struct AlternateState {
    StateId id = 0;
    /// Conjunction describing the alternate path (prefix + negated branch).
    std::vector<solver::ExprRef> path_condition;
    /// Position in the tree: node index and the direction to take there.
    uint32_t node = 0;
    bool direction = false;
    /// Low-level program counter of the forking branch site.
    uint64_t llpc = 0;
    /// Static high-level PC (value of the last log_pc) at fork time.
    uint64_t static_hlpc = 0;
    /// Dynamic high-level PC: the occurrence of static_hlpc in the unfolded
    /// high-level execution tree (node id assigned by the HL tracker).
    uint64_t dynamic_hlpc = 0;
    /// Opcode reported by the last log_pc before the fork.
    uint32_t hl_opcode = 0;
    /// Paper §3.4: states forked consecutively at the same low-level PC get
    /// geometrically decaying weights; the most recent fork has weight 1.
    double fork_weight = 1.0;
    /// Depth in the low-level tree (number of symbolic branches en route).
    uint32_t depth = 0;
};

/// Exploration status of one direction of a branch node.
enum class EdgeStatus : uint8_t {
    kUnknown,     ///< Never taken, no alternate registered.
    kExplored,    ///< Some completed run went this way.
    kRegistered,  ///< Alternate state pending in the strategy queue.
    kInfeasible,  ///< Solver proved the direction's path condition UNSAT.
};

/// High-level position of the run at a fork, recorded into the alternate
/// state registered there (filled by the runtime from the tracker's
/// write-back).
struct HlPosition {
    uint64_t static_hlpc = 0;
    uint64_t dynamic_hlpc = 0;
    uint32_t opcode = 0;
};

/// The concolic execution tree plus the pool of pending alternate states.
class ExecutionTree
{
  public:
    /// Per-run traversal state. Each concurrent run owns one cursor; the
    /// tree never stores per-run state, so runs only contend on the shared
    /// node/pending structures inside Advance.
    class Cursor
    {
      public:
        /// The path condition of the run so far.
        const std::vector<solver::ExprRef>& path_condition() const
        {
            return path_condition_;
        }

        /// Number of symbolic branches the run has passed.
        uint32_t depth() const { return depth_; }

      private:
        friend class ExecutionTree;

        int32_t node = 0;
        bool at_root = true;
        bool last_direction = false;
        std::vector<solver::ExprRef> path_condition_;
        uint32_t depth_ = 0;
    };

    ExecutionTree();

    /// Drops all nodes and pending states.
    void Reset();

    /// Resets \p cursor to the root for a new run.
    void BeginRun(Cursor& cursor);

    /// Legacy form: resets the tree's built-in default cursor (used by
    /// single-threaded callers and tests).
    void BeginRun() { BeginRun(default_cursor_); }

    /// Result of advancing a run cursor through a symbolic branch.
    struct AdvanceResult {
        /// Non-zero when a new alternate state was registered for the
        /// not-taken direction.
        StateId registered = 0;
    };

    /// Records that the run behind \p cursor took direction \p taken at a
    /// symbolic branch with the given site \p llpc and branch condition
    /// (already in taken-form, i.e. the constraint that holds on this run).
    /// The alternate's path condition is the cursor's prefix plus the
    /// negated constraint; \p hl stamps the alternate with the run's
    /// high-level position. A newly registered state is announced through
    /// the state-added hook while still holding the tree lock, so observers
    /// see it fully constructed and exactly once.
    AdvanceResult Advance(Cursor& cursor, uint64_t llpc, bool taken,
                          const solver::ExprRef& taken_constraint,
                          const solver::ExprRef& negated_constraint,
                          const HlPosition& hl);

    /// Legacy form: default cursor, empty high-level position.
    AdvanceResult Advance(uint64_t llpc, bool taken,
                          const solver::ExprRef& taken_constraint,
                          const solver::ExprRef& negated_constraint)
    {
        return Advance(default_cursor_, llpc, taken, taken_constraint,
                       negated_constraint, HlPosition{});
    }

    /// The path condition of the default cursor's current run.
    const std::vector<solver::ExprRef>& current_path_condition() const
    {
        return default_cursor_.path_condition();
    }

    /// Adds an assumption to a run's path condition (not a branch; no
    /// forking, no shared state touched).
    void AddConstraint(Cursor& cursor, const solver::ExprRef& constraint)
    {
        cursor.path_condition_.push_back(constraint);
    }

    /// Legacy form: default cursor.
    void AddConstraint(const solver::ExprRef& constraint)
    {
        AddConstraint(default_cursor_, constraint);
    }

    /// Number of symbolic branches the default cursor's run has passed.
    uint32_t current_depth() const { return default_cursor_.depth(); }

    /// Removes and returns a pending state (strategy selected it).
    /// The state stays recorded as kRegistered in the tree until the caller
    /// reports the outcome via MarkInfeasible or a subsequent run exploring
    /// it.
    AlternateState TakePending(StateId id);

    // -- Claim/lease protocol (parallel exploration) ------------------------

    /// Atomically runs \p select (typically SearchStrategy::ClaimState)
    /// under the tree lock and, if it returns a non-zero id, leases that
    /// state to the caller: the state leaves the pending pool (firing the
    /// pending-removed hook) and is tracked as in flight. Returns false
    /// when \p select returned 0 (nothing selectable). The leased state
    /// must be resolved with CompleteClaim, MarkInfeasible, or
    /// ReleaseClaim.
    bool ClaimState(const std::function<StateId()>& select,
                    AlternateState* out);

    /// Hands a leased state back untouched: re-inserts it into the pending
    /// pool and re-announces it through the state-added hook (so the
    /// strategy re-queues it).
    void ReleaseClaim(const AlternateState& state);

    /// Marks a leased state's run as committed (the exploring run advanced
    /// through its node, so the tree already records the direction as
    /// explored); drops the in-flight lease.
    void CompleteClaim(StateId id);

    /// Marks a previously taken or leased state's direction as infeasible.
    void MarkInfeasible(const AlternateState& state);

    /// Number of leased (claimed, not yet resolved) states.
    size_t states_in_flight() const;

    /// Pending states dropped because a run explored their direction
    /// before the strategy picked them (Advance's stale-alternate path).
    /// With concurrent runs the count depends on interleaving: every
    /// registered state ends up exactly one of finalized, still pending,
    /// or overtaken.
    uint64_t states_overtaken() const
    {
        return states_overtaken_.load(std::memory_order_relaxed);
    }

    // -----------------------------------------------------------------------

    /// Looks up a pending state (for strategies). Null if absent. Only
    /// meaningful under the tree lock (i.e. from within a ClaimState
    /// selection callback or single-threaded use); the pointer is
    /// invalidated by any concurrent mutation.
    const AlternateState* FindPending(StateId id) const;

    /// All pending states (insertion order not guaranteed). Requires
    /// external quiescence; used by single-threaded callers and tests.
    const std::unordered_map<StateId, AlternateState>& pending() const
    {
        return pending_;
    }

    /// Multiplies the fork weight of a pending state (fork streak decay).
    void ScaleForkWeight(StateId id, double factor);

    size_t num_nodes() const;
    uint64_t total_registered() const;

    /// Observer invoked whenever a pending state disappears from the pool
    /// (selected by the strategy, overtaken by natural exploration, or
    /// proven infeasible). Used by search strategies for bookkeeping.
    /// Invoked under the tree lock.
    void set_on_pending_removed(std::function<void(StateId)> hook)
    {
        on_pending_removed_ = std::move(hook);
    }

    /// Observer invoked when a state enters (or re-enters, after
    /// ReleaseClaim) the pending pool, fully constructed. Invoked under the
    /// tree lock.
    void set_on_state_added(
        std::function<void(const AlternateState&)> hook)
    {
        on_state_added_ = std::move(hook);
    }

  private:
    struct Node {
        uint64_t llpc = 0;
        int32_t child[2] = {-1, -1};
        EdgeStatus status[2] = {EdgeStatus::kUnknown, EdgeStatus::kUnknown};
        StateId pending_id[2] = {0, 0};
    };

    // Recursive because strategy callbacks run under the tree lock and may
    // legitimately re-enter read accessors (CupaStrategy reads pending
    // fork weights through FindPending while selecting).
    mutable std::recursive_mutex mutex_;

    std::vector<Node> nodes_;
    std::unordered_map<StateId, AlternateState> pending_;
    /// Leased (claimed, not yet resolved) states.
    std::unordered_set<StateId> in_flight_;
    StateId next_state_id_ = 1;
    std::atomic<uint64_t> states_overtaken_{0};
    std::function<void(StateId)> on_pending_removed_;
    std::function<void(const AlternateState&)> on_state_added_;

    Cursor default_cursor_;
};

}  // namespace chef::lowlevel

#endif  // CHEF_LOWLEVEL_EXEC_TREE_H_
