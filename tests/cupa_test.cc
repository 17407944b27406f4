/// \file
/// Tests for CUPA and the baseline search strategies, including the
/// class-uniformity statistical property the heuristic is named for.

#include <gtest/gtest.h>

#include <vector>

#include "cupa/strategy.h"
#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"

namespace chef::cupa {
namespace {

AlternateState
MakeState(StateId id, uint64_t dynamic_hlpc, uint64_t llpc,
          uint64_t static_hlpc = 0, double fork_weight = 1.0)
{
    AlternateState state;
    state.id = id;
    state.dynamic_hlpc = dynamic_hlpc;
    state.llpc = llpc;
    state.static_hlpc = static_hlpc;
    state.fork_weight = fork_weight;
    return state;
}

TEST(RandomStrategy, AddRemoveSelect)
{
    Rng rng(1);
    RandomStrategy strategy(&rng);
    EXPECT_TRUE(strategy.empty());
    strategy.OnStateAdded(MakeState(1, 0, 0));
    strategy.OnStateAdded(MakeState(2, 0, 0));
    EXPECT_EQ(strategy.size(), 2u);
    strategy.OnStateRemoved(1);
    EXPECT_EQ(strategy.ClaimState(), 2u);
    strategy.OnStateRemoved(2);
    EXPECT_TRUE(strategy.empty());
    // Removing an unknown id is a no-op.
    strategy.OnStateRemoved(99);
}

TEST(DfsStrategy, PicksNewest)
{
    DfsStrategy strategy;
    strategy.OnStateAdded(MakeState(5, 0, 0));
    strategy.OnStateAdded(MakeState(9, 0, 0));
    strategy.OnStateAdded(MakeState(7, 0, 0));
    EXPECT_EQ(strategy.ClaimState(), 9u);
}

TEST(BfsStrategy, PicksOldest)
{
    BfsStrategy strategy;
    strategy.OnStateAdded(MakeState(5, 0, 0));
    strategy.OnStateAdded(MakeState(9, 0, 0));
    strategy.OnStateAdded(MakeState(3, 0, 0));
    EXPECT_EQ(strategy.ClaimState(), 3u);
}

TEST(CupaStrategy, SelectsFromSingleClass)
{
    lowlevel::ExecutionTree tree;
    Rng rng(7);
    auto strategy = MakePathOptimizedCupa(&tree, &rng);
    strategy->OnStateAdded(MakeState(1, 10, 100));
    EXPECT_EQ(strategy->ClaimState(), 1u);
}

TEST(CupaStrategy, RemovalPrunesClasses)
{
    lowlevel::ExecutionTree tree;
    Rng rng(7);
    auto strategy = MakePathOptimizedCupa(&tree, &rng);
    strategy->OnStateAdded(MakeState(1, 10, 100));
    strategy->OnStateAdded(MakeState(2, 20, 100));
    strategy->OnStateRemoved(1);
    EXPECT_EQ(strategy->size(), 1u);
    EXPECT_EQ(strategy->ClaimState(), 2u);
    strategy->OnStateRemoved(2);
    EXPECT_TRUE(strategy->empty());
}

/// The defining CUPA property (§3.2): a class containing many states is
/// selected no more often than a class containing one state.
TEST(CupaStrategy, ClassUniformityHoldsUnderSkewedPopulation)
{
    lowlevel::ExecutionTree tree;
    Rng rng(1234);
    auto strategy = MakePathOptimizedCupa(&tree, &rng);

    // Class A (dynamic HLPC 1): a single state. Class B (dynamic HLPC 2):
    // 50 states, as a string-compare hot spot would produce.
    strategy->OnStateAdded(MakeState(1, /*dyn=*/1, /*llpc=*/500));
    for (StateId id = 2; id <= 51; ++id) {
        strategy->OnStateAdded(MakeState(id, /*dyn=*/2, /*llpc=*/600));
    }

    int class_a = 0;
    int class_b = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        const StateId picked = strategy->ClaimState();
        if (picked == 1) {
            ++class_a;
        } else {
            ++class_b;
        }
    }
    // Each class should receive ~50% of selections; allow generous noise.
    EXPECT_GT(class_a, trials * 0.44);
    EXPECT_LT(class_a, trials * 0.56);
    EXPECT_GT(class_b, trials * 0.44);
}

/// Without CUPA (uniform over states), the same population is dominated by
/// the big class -- the bias CUPA removes.
TEST(RandomStrategy, UniformOverStatesIsBiasedTowardBigClasses)
{
    Rng rng(1234);
    RandomStrategy strategy(&rng);
    strategy.OnStateAdded(MakeState(1, 1, 500));
    for (StateId id = 2; id <= 51; ++id) {
        strategy.OnStateAdded(MakeState(id, 2, 600));
    }
    int class_a = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        if (strategy.ClaimState() == 1) {
            ++class_a;
        }
    }
    // State 1 is one of 51 states: ~2% of selections.
    EXPECT_LT(class_a, trials * 0.06);
}

TEST(CupaStrategy, SecondLevelPartitionsByLlpc)
{
    lowlevel::ExecutionTree tree;
    Rng rng(99);
    auto strategy = MakePathOptimizedCupa(&tree, &rng);
    // Same dynamic HLPC, two low-level fork sites: 1 state vs 30 states.
    strategy->OnStateAdded(MakeState(1, 7, /*llpc=*/111));
    for (StateId id = 2; id <= 31; ++id) {
        strategy->OnStateAdded(MakeState(id, 7, /*llpc=*/222));
    }
    int site_a = 0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) {
        if (strategy->ClaimState() == 1) {
            ++site_a;
        }
    }
    EXPECT_GT(site_a, trials * 0.42);
    EXPECT_LT(site_a, trials * 0.58);
}

TEST(CoverageCupa, WeighsClassesByDistance)
{
    lowlevel::ExecutionTree tree;
    Rng rng(5);
    // static HLPC 10 is close to a potential branch (weight 1.0); static
    // HLPC 20 is far (weight 0.1).
    auto strategy = MakeCoverageOptimizedCupa(
        &tree, &rng, [](uint64_t static_hlpc) {
            return static_hlpc == 10 ? 1.0 : 0.1;
        });
    strategy->OnStateAdded(MakeState(1, 0, 0, /*static=*/10));
    strategy->OnStateAdded(MakeState(2, 0, 0, /*static=*/20));
    int near = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        if (strategy->ClaimState() == 1) {
            ++near;
        }
    }
    // Expected ratio 1.0 : 0.1 => ~91%.
    EXPECT_GT(near, trials * 0.85);
}

TEST(CoverageCupa, WeighsStatesByForkWeightFromTree)
{
    // Fork weights are read live from the tree's pending pool, so streak
    // decay applied after insertion is visible at selection time.
    lowlevel::ExecutionTree tree;
    solver::Solver solver;
    lowlevel::LowLevelRuntime runtime(&tree, &solver, {});
    Rng rng(5);
    auto strategy = MakeCoverageOptimizedCupa(
        &tree, &rng, [](uint64_t) { return 1.0; });
    tree.set_on_state_added(
        [&strategy](const lowlevel::AlternateState& state) {
            strategy->OnStateAdded(state);
        });
    tree.set_on_pending_removed(
        [&strategy](StateId id) { strategy->OnStateRemoved(id); });

    runtime.BeginRun(solver::Assignment());
    // Two consecutive forks at one site -> weights p and 1. Both states
    // share static HLPC 0, so they land in one class; the second (most
    // recent) fork should be preferred p:1.
    lowlevel::SymValue a = runtime.MakeSymbolicValue("a", 8, 1);
    lowlevel::SymValue b = runtime.MakeSymbolicValue("b", 8, 2);
    runtime.Branch(SvEq(a, lowlevel::SymValue(9, 8)), 42);
    runtime.Branch(SvEq(b, lowlevel::SymValue(9, 8)), 42);

    // Identify the most recent state (id 2).
    int recent = 0;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) {
        if (strategy->ClaimState() == 2) {
            ++recent;
        }
    }
    // Expected share = 1 / (1 + 0.75) ~= 0.571.
    EXPECT_GT(recent, trials * 0.50);
    EXPECT_LT(recent, trials * 0.65);
}

}  // namespace
}  // namespace chef::cupa
