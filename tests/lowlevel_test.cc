/// \file
/// Tests for SymValue concolic arithmetic, the execution tree, and the
/// low-level runtime.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "lowlevel/exec_tree.h"
#include "lowlevel/runtime.h"
#include "lowlevel/symvalue.h"
#include "support/rng.h"

namespace chef::lowlevel {
namespace {

using solver::Assignment;
using solver::EvalConcrete;
using solver::QueryResult;

TEST(SymValue, ConcreteOnlyCarriesNoExpr)
{
    const SymValue a(5, 32);
    const SymValue b(7, 32);
    const SymValue sum = SvAdd(a, b);
    EXPECT_EQ(sum.concrete(), 12u);
    EXPECT_FALSE(sum.IsSymbolic());
}

TEST(SymValue, SymbolicPropagates)
{
    const SymValue x(5, 32, solver::MakeVar(1, 32));
    const SymValue sum = SvAdd(x, SymValue(7, 32));
    EXPECT_EQ(sum.concrete(), 12u);
    ASSERT_TRUE(sum.IsSymbolic());
    Assignment assignment;
    assignment.Set(1, 100);
    EXPECT_EQ(EvalConcrete(sum.ToExpr(), assignment), 107u);
}

TEST(SymValue, ConstantExpressionIsDropped)
{
    const SymValue v(9, 16, solver::MakeConst(9, 16));
    EXPECT_FALSE(v.IsSymbolic());
}

/// Property: concolic ops keep concrete and symbolic views consistent: the
/// expression evaluated under the inputs equals the concrete value.
class SymValueConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymValueConsistency, ConcreteMatchesExprEval)
{
    Rng rng(GetParam());
    Assignment inputs;
    const uint64_t xv = rng.Next() & 0xffffffffu;
    const uint64_t yv = rng.Next() & 0xffffffffu;
    inputs.Set(1, xv);
    inputs.Set(2, yv);
    const SymValue x(xv, 32, solver::MakeVar(1, 32));
    const SymValue y(yv, 32, solver::MakeVar(2, 32));

    using Op = SymValue (*)(const SymValue&, const SymValue&);
    const Op ops[] = {SvAdd, SvSub, SvMul,  SvUDiv, SvSDiv, SvURem,
                      SvSRem, SvAnd, SvOr,  SvXor,  SvShl,  SvLShr,
                      SvAShr, SvEq,  SvNe,  SvUlt,  SvUle,  SvSlt,
                      SvSle,  SvSgt, SvSge};
    for (const Op op : ops) {
        const SymValue result = op(x, y);
        ASSERT_TRUE(result.IsSymbolic());
        EXPECT_EQ(result.concrete(),
                  EvalConcrete(result.ToExpr(), inputs));
    }
    const SymValue extended = SvSExt(SvTrunc(x, 8), 64);
    EXPECT_EQ(extended.concrete(),
              EvalConcrete(extended.ToExpr(), inputs));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymValueConsistency,
                         ::testing::Values(3, 5, 8, 13, 21, 34));

/// Advances \p cursor through a branch at \p llpc with an empty
/// high-level position.
ExecutionTree::AdvanceResult
Step(ExecutionTree& tree, ExecutionTree::Cursor& cursor, uint64_t llpc,
     bool taken, const solver::ExprRef& taken_constraint,
     const solver::ExprRef& negated_constraint)
{
    return tree.Advance(cursor, llpc, taken, taken_constraint,
                        negated_constraint, HlPosition{});
}

TEST(ExecTree, RegistersAlternateOnFirstBranch)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    tree.BeginRun(cursor);
    auto result = Step(tree, cursor, 100, true, cond, negated);
    ASSERT_NE(result.registered, 0u);
    const AlternateState* state = tree.FindPending(result.registered);
    ASSERT_NE(state, nullptr);
    EXPECT_EQ(state->llpc, 100u);
    EXPECT_FALSE(state->direction);
    const std::vector<solver::ExprRef> path = state->PathCondition();
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], negated);
    EXPECT_EQ(tree.pending().size(), 1u);
}

TEST(ExecTree, NoDuplicateRegistration)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    tree.BeginRun(cursor);
    Step(tree, cursor, 100, true, cond, negated);
    // Second run takes the same direction: no new registration.
    tree.BeginRun(cursor);
    auto result = Step(tree, cursor, 100, true, cond, negated);
    EXPECT_EQ(result.registered, 0u);
    EXPECT_EQ(tree.pending().size(), 1u);
}

TEST(ExecTree, NaturalExplorationRemovesPending)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    std::vector<StateId> removed;
    tree.set_on_pending_removed(
        [&removed](StateId id) { removed.push_back(id); });
    const auto cond = solver::MakeEq(solver::MakeVar(1, 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    tree.BeginRun(cursor);
    auto first = Step(tree, cursor, 100, true, cond, negated);
    const StateId pending_id = first.registered;
    // A later run takes the other direction without the strategy ever
    // selecting the alternate: the pending state is consumed.
    tree.BeginRun(cursor);
    auto second = Step(tree, cursor, 100, false, negated, cond);
    EXPECT_EQ(second.registered, 0u);
    EXPECT_TRUE(tree.pending().empty());
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0], pending_id);
}

TEST(ExecTree, PathConditionAccumulates)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto x = solver::MakeVar(1, 8);
    const auto c1 = solver::MakeUgt(x, solver::MakeConst(10, 8));
    const auto c2 = solver::MakeUlt(x, solver::MakeConst(100, 8));
    tree.BeginRun(cursor);
    Step(tree, cursor, 1, true, c1, solver::MakeBoolNot(c1));
    auto result = Step(tree, cursor, 2, true, c2, solver::MakeBoolNot(c2));
    // The alternate at the second branch carries the first constraint plus
    // the negation of the second.
    ASSERT_NE(result.registered, 0u);
    const AlternateState* alternate = tree.FindPending(result.registered);
    ASSERT_NE(alternate, nullptr);
    const std::vector<solver::ExprRef> path = alternate->PathCondition();
    ASSERT_EQ(path.size(), 2u);
    EXPECT_TRUE(solver::Expr::Equal(path[0], c1));
    EXPECT_EQ(cursor.path_condition().size(), 2u);
    EXPECT_EQ(cursor.depth(), 2u);
}

TEST(ExecTree, TakePendingAndMarkInfeasible)
{
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, 8),
                                     solver::MakeConst(1, 8));
    tree.BeginRun(cursor);
    auto result = Step(tree, cursor, 7, true, cond, solver::MakeBoolNot(cond));
    const StateId id = result.registered;
    AlternateState state = tree.TakePending(id);
    EXPECT_TRUE(tree.pending().empty());
    tree.MarkInfeasible(state);
    // Re-running the same branch direction must not re-register the
    // infeasible direction.
    tree.BeginRun(cursor);
    auto again = Step(tree, cursor, 7, true, cond, solver::MakeBoolNot(cond));
    EXPECT_EQ(again.registered, 0u);
}

/// Property: every alternate's path condition is exactly the flat prefix
/// its run had at the fork, then its negated constraint — with
/// assumptions added between branches, and across runs that reuse one
/// cursor (each BeginRun drops the cursor's chain while older alternates
/// still share theirs).
class SharedPathCondition : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedPathCondition, EqualsFlatPrefixPlusNegation)
{
    Rng rng(GetParam());
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto x = solver::MakeVar(1, 16);
    uint64_t next_constant = 0;
    auto fresh = [&]() {
        return solver::MakeUlt(x, solver::MakeConst(next_constant++, 16));
    };
    std::unordered_map<StateId, std::vector<solver::ExprRef>> expected;
    for (int run = 0; run < 12; ++run) {
        tree.BeginRun(cursor);
        std::vector<solver::ExprRef> flat;
        for (uint64_t depth = 0; depth < 24; ++depth) {
            for (uint64_t n = rng.Next() % 3; n > 0; --n) {
                flat.push_back(fresh());
                tree.AddConstraint(cursor, flat.back());
            }
            const auto taken = fresh();
            const auto negated = solver::MakeBoolNot(taken);
            // The branch site depends on the depth only, so every run
            // replays the tree deterministically.
            const auto result = Step(tree, cursor, depth + 1,
                                     (rng.Next() & 1) != 0, taken, negated);
            if (result.registered != 0) {
                std::vector<solver::ExprRef> path = flat;
                path.push_back(negated);
                expected.emplace(result.registered, std::move(path));
            }
            flat.push_back(taken);
            ASSERT_EQ(cursor.path_condition(), flat);
        }
    }
    ASSERT_GT(tree.pending().size(), 24u);
    for (const auto& [id, state] : tree.pending()) {
        ASSERT_EQ(expected.count(id), 1u);
        EXPECT_EQ(state.PathCondition(), expected.at(id)) << "state " << id;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPathCondition,
                         ::testing::Values(1, 2, 3, 7, 11));

TEST(ExecTree, AlternatesShareTheirRunsPrefix)
{
    // 1,000 alternates forked along one path hold one link each on a
    // shared chain, so the first constraint is referenced by the test,
    // the cursor's flat vector and one link — not once per alternate.
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto x = solver::MakeVar(1, 16);
    const auto first = solver::MakeUlt(x, solver::MakeConst(1000, 16));
    tree.BeginRun(cursor);
    StateId last = 0;
    for (uint64_t i = 0; i < 1000; ++i) {
        const auto taken =
            i == 0 ? first : solver::MakeUlt(x, solver::MakeConst(i, 16));
        last = Step(tree, cursor, i + 1, true, taken,
                    solver::MakeBoolNot(taken))
                   .registered;
        ASSERT_NE(last, 0u);
    }
    EXPECT_EQ(tree.pending().size(), 1000u);
    EXPECT_LE(first.use_count(), 4);
    const std::vector<solver::ExprRef> path =
        tree.FindPending(last)->PathCondition();
    ASSERT_EQ(path.size(), 1000u);
    EXPECT_EQ(path.front(), first);
}

TEST(ExecTree, DeepChainTearsDownWithoutRecursion)
{
    // A chain far deeper than a recursive destructor could unwind on the
    // stack: built in one registration, then dropped by its last owner.
    constexpr size_t kDepth = 1'000'000;
    ExecutionTree tree;
    ExecutionTree::Cursor cursor;
    const auto cond = solver::MakeEq(solver::MakeVar(1, 8),
                                     solver::MakeConst(1, 8));
    const auto negated = solver::MakeBoolNot(cond);
    const long handles_before = cond.use_count();
    tree.BeginRun(cursor);
    for (size_t i = 0; i < kDepth; ++i) {
        tree.AddConstraint(cursor, cond);
    }
    const StateId id = Step(tree, cursor, 1, true, cond, negated).registered;
    ASSERT_NE(id, 0u);
    EXPECT_EQ(tree.FindPending(id)->path->size, kDepth + 1);
    tree.Reset();  // Drops the alternate's link; the cursor holds the rest.
    tree.BeginRun(cursor);  // Drops the chain itself.
    EXPECT_EQ(cond.use_count(), handles_before);
}

class RuntimeFixture : public ::testing::Test
{
  protected:
    RuntimeFixture()
        : runtime_(&tree_, &solver_, lowlevel::LowLevelRuntime::Options{})
    {
    }

    ExecutionTree tree_;
    solver::Solver solver_;
    LowLevelRuntime runtime_;
};

TEST_F(RuntimeFixture, MakeSymbolicUsesDefaultsThenAssignment)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 42);
    EXPECT_EQ(x.concrete(), 42u);
    EXPECT_TRUE(x.IsSymbolic());
    runtime_.EndRun();

    Assignment inputs;
    inputs.Set(1, 7);
    runtime_.BeginRun(inputs);
    x = runtime_.MakeSymbolicValue("x", 8, 42);
    EXPECT_EQ(x.concrete(), 7u);
}

TEST_F(RuntimeFixture, ConcreteBranchDoesNotFork)
{
    runtime_.BeginRun(Assignment());
    EXPECT_TRUE(runtime_.Branch(SymValue(1, 1), CHEF_LLPC));
    EXPECT_FALSE(runtime_.Branch(SymValue(0, 1), CHEF_LLPC));
    EXPECT_TRUE(tree_.pending().empty());
}

TEST_F(RuntimeFixture, SymbolicBranchForksAndFollowsConcrete)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    const SymValue cond = SvUgt(x, SymValue(10, 8));
    EXPECT_FALSE(runtime_.Branch(cond, 1234));
    EXPECT_EQ(tree_.pending().size(), 1u);
    const RunStats stats = runtime_.EndRun();
    EXPECT_EQ(stats.symbolic_branches, 1u);
    EXPECT_EQ(stats.registered_states, 1u);
}

TEST_F(RuntimeFixture, RegistrationCapStopsForkingButKeepsConstraints)
{
    // One run meets more symbolic branches than the cap: it registers
    // exactly kMaxRegisteredPerRun alternates, then follows the concrete
    // path, and its path condition still holds one constraint per
    // symbolic branch.
    constexpr uint32_t kCap = LowLevelRuntime::kMaxRegisteredPerRun;
    constexpr uint32_t kBranches = kCap + 100;
    runtime_.BeginRun(Assignment());
    const SymValue x = runtime_.MakeSymbolicValue("x", 16, 0xffff);
    for (uint32_t i = 0; i < kBranches; ++i) {
        EXPECT_FALSE(runtime_.Branch(SvEq(x, SymValue(i, 16)), 1000 + i));
    }
    EXPECT_EQ(tree_.pending().size(), kCap);
    EXPECT_EQ(runtime_.current_path_condition().size(), kBranches);
    const RunStats stats = runtime_.EndRun();
    EXPECT_EQ(stats.symbolic_branches, kBranches);
    EXPECT_EQ(stats.registered_states, kCap);
}

TEST_F(RuntimeFixture, AssumeViolationAbortsPath)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    runtime_.Assume(SvUgt(x, SymValue(100, 8)));  // Concretely false.
    EXPECT_EQ(runtime_.status(), PathStatus::kAssumeViolated);
    // The assumption is still in the path condition for re-solving.
    EXPECT_EQ(runtime_.current_path_condition().size(), 1u);
}

TEST_F(RuntimeFixture, ConcretizeAddsEqualityConstraint)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 33);
    EXPECT_EQ(runtime_.Concretize(x), 33u);
    ASSERT_EQ(runtime_.current_path_condition().size(), 1u);
    // The constraint pins x to 33.
    Assignment model;
    ASSERT_EQ(solver_.Solve(runtime_.current_path_condition(), &model),
              QueryResult::kSat);
    EXPECT_EQ(model.Get(1), 33u);
}

TEST_F(RuntimeFixture, UpperBoundUnderPathCondition)
{
    runtime_.BeginRun(Assignment());
    SymValue x = runtime_.MakeSymbolicValue("x", 8, 5);
    // Branch concretely taken: x < 57.
    runtime_.Branch(SvUlt(x, SymValue(57, 8)), CHEF_LLPC);
    EXPECT_EQ(runtime_.UpperBound(x), 56u);
}

TEST_F(RuntimeFixture, StepBudgetFlagsHang)
{
    LowLevelRuntime::Options options;
    options.max_steps_per_run = 100;
    LowLevelRuntime tight(&tree_, &solver_, options);
    tight.BeginRun(Assignment());
    for (int i = 0; i < 200 && tight.running(); ++i) {
        tight.CountStep();
    }
    EXPECT_EQ(tight.status(), PathStatus::kHang);
    EXPECT_TRUE(tight.out_of_budget());
}

TEST_F(RuntimeFixture, ForkWeightStreakDecays)
{
    // Three consecutive forks at the same LLPC: weights p^2, p, 1.
    runtime_.BeginRun(Assignment());
    SymValue s0 = runtime_.MakeSymbolicValue("s0", 8, 'a');
    SymValue s1 = runtime_.MakeSymbolicValue("s1", 8, 'b');
    SymValue s2 = runtime_.MakeSymbolicValue("s2", 8, 'c');
    const uint64_t loop_llpc = 999;
    std::vector<StateId> ids;
    for (const SymValue* byte : {&s0, &s1, &s2}) {
        runtime_.Branch(SvEq(*byte, SymValue('x', 8)), loop_llpc);
    }
    ASSERT_EQ(tree_.pending().size(), 3u);
    std::vector<double> weights;
    for (const auto& [id, state] : tree_.pending()) {
        weights.push_back(state.fork_weight);
    }
    std::sort(weights.begin(), weights.end());
    EXPECT_DOUBLE_EQ(weights[0], 0.75 * 0.75);
    EXPECT_DOUBLE_EQ(weights[1], 0.75);
    EXPECT_DOUBLE_EQ(weights[2], 1.0);
}

TEST_F(RuntimeFixture, ForkWeightStreakBrokenByOtherSite)
{
    runtime_.BeginRun(Assignment());
    SymValue s0 = runtime_.MakeSymbolicValue("s0", 8, 'a');
    SymValue s1 = runtime_.MakeSymbolicValue("s1", 8, 'b');
    runtime_.Branch(SvEq(s0, SymValue('x', 8)), 111);
    runtime_.Branch(SvEq(s1, SymValue('x', 8)), 222);
    for (const auto& [id, state] : tree_.pending()) {
        EXPECT_DOUBLE_EQ(state.fork_weight, 1.0);
    }
}

TEST_F(RuntimeFixture, LlpcFromLocationIsStable)
{
    const uint64_t a = LlpcFromLocation("foo.cc", 10);
    const uint64_t b = LlpcFromLocation("foo.cc", 10);
    const uint64_t c = LlpcFromLocation("foo.cc", 11);
    const uint64_t d = LlpcFromLocation("bar.cc", 10);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
}

}  // namespace
}  // namespace chef::lowlevel
