#ifndef CHEF_CUPA_STRATEGY_H_
#define CHEF_CUPA_STRATEGY_H_

/// \file
/// State selection strategies, including Class-Uniform Path Analysis (§3.2).
///
/// A strategy watches the pool of pending alternate states and, when the
/// engine needs the next state to explore, claims one. CUPA organizes the
/// pool into a hierarchy of classes (Figure 5) and picks by random descent:
/// first a class, uniformly (or by class weight), then recursively within.
///
/// Claim/release protocol: ClaimState() picks a state id without removing
/// it from the strategy's own structures — the caller immediately takes it
/// out of the pool through ExecutionTree::TakePending, whose
/// pending-removed hook drives OnStateRemoved; ExecutionTree::ReleaseClaim
/// re-announces a handed-back state through the state-added hook, driving
/// OnStateAdded.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "lowlevel/exec_tree.h"
#include "support/rng.h"

namespace chef::cupa {

using lowlevel::AlternateState;
using lowlevel::StateId;

/// Interface for state selection.
class SearchStrategy
{
  public:
    virtual ~SearchStrategy() = default;

    /// A state entered the pending pool.
    virtual void OnStateAdded(const AlternateState& state) = 0;

    /// A state left the pending pool (claimed, overtaken, or infeasible).
    virtual void OnStateRemoved(StateId id) = 0;

    /// Claims a pending state for exploration. Must not be called when
    /// empty(). The claimed state must then be taken from the tree
    /// (ExecutionTree::TakePending), which fires OnStateRemoved; until
    /// then the strategy still counts it.
    virtual StateId ClaimState() = 0;

    virtual size_t size() const = 0;
    bool empty() const { return size() == 0; }

    virtual std::string name() const = 0;
};

/// Generic N-level CUPA strategy (Figure 5).
///
/// Each level is a classification function h_i mapping a state to a class
/// key, with an optional class weight; sibling classes are selected with
/// probability proportional to their weight (uniform by default). At the
/// leaves, an optional per-state weight biases the final pick (used by
/// coverage-optimized CUPA for fork weights, §3.4).
class CupaStrategy : public SearchStrategy
{
  public:
    struct LevelSpec {
        /// Maps a state to its class key at this level.
        std::function<uint64_t(const AlternateState&)> classify;
        /// Weight of a class (evaluated at selection time); null = uniform.
        std::function<double(uint64_t class_key)> class_weight;
    };

    /// \p tree is consulted to read current state attributes (e.g. fork
    /// weights) at selection time.
    CupaStrategy(lowlevel::ExecutionTree* tree, Rng* rng,
                 std::vector<LevelSpec> levels,
                 std::function<double(const AlternateState&)> state_weight,
                 std::string name);

    std::string name() const override { return name_; }

    void OnStateAdded(const AlternateState& state) override;
    void OnStateRemoved(StateId id) override;
    StateId ClaimState() override;
    size_t size() const override { return membership_.size(); }

  private:
    struct ClassNode {
        // Child classes, keyed by class key (ordered map for deterministic
        // iteration under a fixed RNG seed).
        std::map<uint64_t, std::unique_ptr<ClassNode>> children;
        // States at a leaf node.
        std::vector<StateId> states;
        size_t total_states = 0;
    };

    lowlevel::ExecutionTree* tree_;
    Rng* rng_;
    std::vector<LevelSpec> levels_;
    std::function<double(const AlternateState&)> state_weight_;
    std::string name_;

    ClassNode root_;
    std::unordered_map<StateId, std::vector<uint64_t>> membership_;
};

/// Baseline: uniform random selection over all pending states (the paper's
/// "random state selection" baseline configuration).
class RandomStrategy : public SearchStrategy
{
  public:
    explicit RandomStrategy(Rng* rng) : rng_(rng) {}

    std::string name() const override { return "random"; }

    void OnStateAdded(const AlternateState& state) override;
    void OnStateRemoved(StateId id) override;
    StateId ClaimState() override;
    size_t size() const override { return states_.size(); }

  private:
    Rng* rng_;
    std::vector<StateId> states_;
    std::unordered_map<StateId, size_t> index_;
};

/// Baseline: depth-first (always the most recently registered state).
class DfsStrategy : public SearchStrategy
{
  public:
    std::string name() const override { return "dfs"; }

    void OnStateAdded(const AlternateState& state) override;
    void OnStateRemoved(StateId id) override;
    StateId ClaimState() override;
    size_t size() const override { return ids_.size(); }

  private:
    // Sorted container used as a stack with arbitrary removal.
    std::map<StateId, bool> ids_;
};

/// Baseline: breadth-first (always the oldest registered state).
class BfsStrategy : public SearchStrategy
{
  public:
    std::string name() const override { return "bfs"; }

    void OnStateAdded(const AlternateState& state) override;
    void OnStateRemoved(StateId id) override;
    StateId ClaimState() override;
    size_t size() const override { return ids_.size(); }

  private:
    std::map<StateId, bool> ids_;
};

// ---------------------------------------------------------------------------
// Paper instantiations.
// ---------------------------------------------------------------------------

/// Path-optimized CUPA (§3.3): level 1 classes are dynamic HLPCs, level 2
/// classes are low-level PCs; uniform class probabilities.
std::unique_ptr<CupaStrategy> MakePathOptimizedCupa(
    lowlevel::ExecutionTree* tree, Rng* rng);

/// Ablation: path-optimized CUPA with the level order inverted (LLPC above
/// dynamic HLPC); used by the fig8 ablation flag.
std::unique_ptr<CupaStrategy> MakeInvertedPathCupa(
    lowlevel::ExecutionTree* tree, Rng* rng);

/// Interface the coverage-optimized CUPA uses to read CFG distances.
using DistanceWeightFn = std::function<double(uint64_t static_hlpc)>;

/// Coverage-optimized CUPA (§3.4): level 1 classes are static HLPCs
/// weighted by 1/d to the nearest potential branching point; level 2 is the
/// state itself, weighted by fork weight.
std::unique_ptr<CupaStrategy> MakeCoverageOptimizedCupa(
    lowlevel::ExecutionTree* tree, Rng* rng,
    DistanceWeightFn distance_weight);

}  // namespace chef::cupa

#endif  // CHEF_CUPA_STRATEGY_H_
