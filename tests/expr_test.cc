/// \file
/// Unit and property tests for the expression DAG and constant folder.

#include "solver/expr.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "lowlevel/symvalue.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

TEST(ExprBasics, ConstantsAreMaskedToWidth)
{
    EXPECT_EQ(MakeConst(0x1ff, 8)->constant_value(), 0xffu);
    EXPECT_EQ(MakeConst(~0ull, 64)->constant_value(), ~0ull);
    EXPECT_EQ(MakeConst(2, 1)->constant_value(), 0u);
}

TEST(ExprBasics, WidthMask)
{
    EXPECT_EQ(WidthMask(1), 1u);
    EXPECT_EQ(WidthMask(8), 0xffu);
    EXPECT_EQ(WidthMask(64), ~0ull);
}

TEST(ExprBasics, SignExtend)
{
    EXPECT_EQ(SignExtend(0x80, 8), -128);
    EXPECT_EQ(SignExtend(0x7f, 8), 127);
    EXPECT_EQ(SignExtend(1, 1), -1);
    EXPECT_EQ(SignExtend(~0ull, 64), -1);
}

TEST(ExprFolding, ArithmeticIdentities)
{
    const ExprRef x = MakeVar(1, 32);
    const ExprRef zero = MakeConst(0, 32);
    const ExprRef one = MakeConst(1, 32);

    EXPECT_EQ(MakeAdd(x, zero).get(), x.get());
    EXPECT_EQ(MakeSub(x, zero).get(), x.get());
    EXPECT_TRUE(MakeSub(x, x)->IsConstant());
    EXPECT_EQ(MakeMul(x, one).get(), x.get());
    EXPECT_TRUE(MakeMul(x, zero)->IsConstant());
    EXPECT_EQ(MakeXor(x, zero).get(), x.get());
    EXPECT_TRUE(MakeXor(x, x)->IsConstant());
    EXPECT_EQ(MakeAnd(x, MakeConst(~0u, 32)).get(), x.get());
    EXPECT_EQ(MakeOr(x, zero).get(), x.get());
}

TEST(ExprFolding, ComparisonsOnConstants)
{
    EXPECT_TRUE(MakeUlt(MakeConst(3, 8), MakeConst(5, 8))->IsTrue());
    EXPECT_TRUE(MakeUlt(MakeConst(5, 8), MakeConst(3, 8))->IsFalse());
    EXPECT_TRUE(MakeSlt(MakeConst(0xff, 8), MakeConst(0, 8))->IsTrue());
    EXPECT_TRUE(MakeSle(MakeConst(0x80, 8), MakeConst(0x7f, 8))->IsTrue());
    EXPECT_TRUE(MakeEq(MakeConst(7, 16), MakeConst(7, 16))->IsTrue());
}

TEST(ExprFolding, SelfComparisons)
{
    const ExprRef x = MakeVar(1, 32);
    EXPECT_TRUE(MakeEq(x, x)->IsTrue());
    EXPECT_TRUE(MakeUlt(x, x)->IsFalse());
    EXPECT_TRUE(MakeUle(x, x)->IsTrue());
    EXPECT_TRUE(MakeSlt(x, x)->IsFalse());
    EXPECT_TRUE(MakeSle(x, x)->IsTrue());
}

TEST(ExprFolding, DoubleNegationCancels)
{
    const ExprRef x = MakeVar(1, 1);
    EXPECT_EQ(MakeBoolNot(MakeBoolNot(x)).get(), x.get());
}

TEST(ExprFolding, IteWithConstantCondition)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef y = MakeVar(2, 8);
    EXPECT_EQ(MakeIte(MakeBool(true), x, y).get(), x.get());
    EXPECT_EQ(MakeIte(MakeBool(false), x, y).get(), y.get());
    EXPECT_EQ(MakeIte(MakeVar(3, 1), x, x).get(), x.get());
}

TEST(ExprFolding, BooleanIteCollapsesToCondition)
{
    const ExprRef c = MakeVar(1, 1);
    EXPECT_EQ(MakeIte(c, MakeBool(true), MakeBool(false)).get(), c.get());
    const ExprRef negated = MakeIte(c, MakeBool(false), MakeBool(true));
    EXPECT_EQ(negated->kind(), ExprKind::kNot);
    EXPECT_EQ(negated->a().get(), c.get());
}

TEST(ExprFolding, ExtractThroughConcat)
{
    const ExprRef high = MakeVar(1, 8);
    const ExprRef low = MakeVar(2, 8);
    const ExprRef concat = MakeConcat(high, low);
    EXPECT_EQ(MakeExtract(concat, 0, 8).get(), low.get());
    EXPECT_EQ(MakeExtract(concat, 8, 8).get(), high.get());
}

TEST(ExprFolding, ExtractOfExtract)
{
    const ExprRef x = MakeVar(1, 32);
    const ExprRef inner = MakeExtract(x, 8, 16);
    const ExprRef outer = MakeExtract(inner, 4, 8);
    EXPECT_EQ(outer->kind(), ExprKind::kExtract);
    EXPECT_EQ(outer->extract_offset(), 12);
    EXPECT_EQ(outer->a().get(), x.get());
}

TEST(ExprFolding, DivisionSmtSemantics)
{
    // x udiv 0 = all-ones; x urem 0 = x.
    EXPECT_EQ(MakeUDiv(MakeConst(5, 8), MakeConst(0, 8))->constant_value(),
              0xffu);
    EXPECT_EQ(MakeURem(MakeConst(5, 8), MakeConst(0, 8))->constant_value(),
              5u);
    // Signed division truncates toward zero.
    EXPECT_EQ(MakeSDiv(MakeConst(0xf9, 8), MakeConst(2, 8))  // -7 / 2
                  ->constant_value(),
              0xfdu);  // -3
    EXPECT_EQ(MakeSRem(MakeConst(0xf9, 8), MakeConst(2, 8))  // -7 % 2
                  ->constant_value(),
              0xffu);  // -1
}

TEST(ExprEquality, StructuralEqualityIgnoresNodeIdentity)
{
    const ExprRef x1 = MakeVar(1, 32);
    const ExprRef x2 = MakeVar(1, 32);
    const ExprRef e1 = MakeAdd(x1, MakeConst(3, 32));
    const ExprRef e2 = MakeAdd(x2, MakeConst(3, 32));
    EXPECT_TRUE(Expr::Equal(e1, e2));
    EXPECT_EQ(e1->hash(), e2->hash());
    const ExprRef e3 = MakeAdd(x1, MakeConst(4, 32));
    EXPECT_FALSE(Expr::Equal(e1, e3));
}

TEST(ExprEval, EvaluatesUnderAssignment)
{
    const ExprRef x = MakeVar(1, 32);
    const ExprRef y = MakeVar(2, 32);
    const ExprRef e =
        MakeAdd(MakeMul(x, MakeConst(3, 32)), y);  // 3x + y
    Assignment assignment;
    assignment.Set(1, 10);
    assignment.Set(2, 7);
    EXPECT_EQ(EvalConcrete(e, assignment), 37u);
    const ExprRef cmp = MakeUgt(e, MakeConst(36, 32));
    EXPECT_EQ(EvalConcrete(cmp, assignment), 1u);
}

TEST(ExprEval, UnassignedVariablesAreZero)
{
    const ExprRef x = MakeVar(9, 16);
    Assignment assignment;
    EXPECT_EQ(EvalConcrete(x, assignment), 0u);
}

TEST(ExprVariables, CollectsDistinctVariables)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef y = MakeVar(2, 8);
    const ExprRef e = MakeAdd(MakeXor(x, y), x);
    std::vector<ExprRef> vars;
    CollectVariables(e, &vars);
    EXPECT_EQ(vars.size(), 2u);
}

/// Property test: folding must agree with EvalConcrete on random constant
/// operands for every binary operator.
class FoldEvalAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FoldEvalAgreement, BinaryOpsOnConstants)
{
    const int width = GetParam();
    Rng rng(width * 1234567u);
    const Assignment empty;
    using Maker = ExprRef (*)(const ExprRef&, const ExprRef&);
    const Maker makers[] = {
        MakeAdd, MakeSub, MakeMul, MakeUDiv, MakeSDiv, MakeURem, MakeSRem,
        MakeAnd, MakeOr,  MakeXor, MakeShl,  MakeLShr, MakeAShr,
        MakeEq,  MakeUlt, MakeUle, MakeSlt,  MakeSle,
    };
    for (int round = 0; round < 200; ++round) {
        const uint64_t av = rng.Next() & WidthMask(width);
        const uint64_t bv = rng.Next() & WidthMask(width);
        for (const Maker make : makers) {
            const ExprRef folded =
                make(MakeConst(av, width), MakeConst(bv, width));
            ASSERT_TRUE(folded->IsConstant());
            // Folding and evaluation must produce the same value when the
            // same operator is applied to variables bound to the operands.
            const ExprRef xa = MakeVar(1, width);
            const ExprRef xb = MakeVar(2, width);
            Assignment assignment;
            assignment.Set(1, av);
            assignment.Set(2, bv);
            const ExprRef symbolic = make(xa, xb);
            EXPECT_EQ(folded->constant_value(),
                      EvalConcrete(symbolic, assignment))
                << "width=" << width << " op mismatch with a=" << av
                << " b=" << bv;
        }
    }
    (void)empty;
}

INSTANTIATE_TEST_SUITE_P(Widths, FoldEvalAgreement,
                         ::testing::Values(1, 7, 8, 16, 32, 33, 64));

TEST(ExprInterning, SmallConstantsAreOneNodePerValueAndWidth)
{
    for (const int width : {1, 8, 16, 32, 64}) {
        for (uint64_t value = 0; value < kInternedConstantLimit; ++value) {
            const ExprRef first = MakeConst(value, width);
            EXPECT_EQ(MakeConst(value, width).get(), first.get())
                << value << ":" << width;
        }
    }
    // Masking happens before the lookup: 0x1ff:8 is 0xff:8.
    EXPECT_EQ(MakeConst(0x1ff, 8).get(), MakeConst(0xff, 8).get());
    EXPECT_EQ(MakeBool(true).get(), MakeConst(1, 1).get());
    // One table per width: equal values of two widths are two nodes.
    EXPECT_NE(MakeConst(7, 8).get(), MakeConst(7, 16).get());
    EXPECT_FALSE(Expr::Equal(MakeConst(7, 8), MakeConst(7, 16)));
    // Larger values are not interned, and still compare structurally.
    const ExprRef big1 = MakeConst(kInternedConstantLimit, 32);
    const ExprRef big2 = MakeConst(kInternedConstantLimit, 32);
    EXPECT_NE(big1.get(), big2.get());
    EXPECT_TRUE(Expr::Equal(big1, big2));
    EXPECT_EQ(big1->hash(), big2->hash());
}

TEST(ExprInterning, HashesAreTheStructuralOnes)
{
    // Values of the structural hash (kind, width, value, ...), which
    // interning must not change: solver cache keys are built from them.
    EXPECT_EQ(MakeConst(3, 32)->hash(), 5217400152010704842ull);
    EXPECT_EQ(MakeConst(255, 8)->hash(), 5217400152003365053ull);
    EXPECT_EQ(MakeBool(true)->hash(), 5217400152005213927ull);
    EXPECT_EQ(MakeConst(1000, 16)->hash(), 5217400152011031414ull);
    EXPECT_EQ(MakeAdd(MakeVar(1, 32), MakeConst(3, 32))->hash(),
              16785329707323380682ull);
    // A leaf's payload shares a word with the third child: the hash still
    // mixes in a zero value or id for the absent payload, as with
    // separate fields.
    const ExprRef x = MakeVar(1, 32);
    const ExprRef y = MakeVar(2, 32);
    const ExprRef byte = MakeVar(3, 8);
    EXPECT_EQ(x->hash(), 5217400151962964460ull);
    EXPECT_EQ(MakeExtract(x, 8, 8)->hash(), 6544636439132090104ull);
    EXPECT_EQ(MakeZExt(byte, 32)->hash(), 6544636356012846962ull);
    EXPECT_EQ(MakeSExt(byte, 32)->hash(), 6544636358034364980ull);
    EXPECT_EQ(MakeConcat(byte, x)->hash(), 16785285307436404869ull);
    EXPECT_EQ(MakeEq(x, y)->hash(), 16785285300726067739ull);
    EXPECT_EQ(MakeIte(MakeEq(x, y), x, MakeConst(7, 32))->hash(),
              1431623149693769455ull);
}

TEST(ExprInterning, EachThreadHasItsOwnNodes)
{
    // A node made on one thread and released on another (after its
    // thread and that thread's table are gone) stays valid.
    ExprRef from_thread;
    ExprRef big_from_thread;
    std::thread maker([&] {
        from_thread = MakeConst(42, 8);
        big_from_thread = MakeConst(4242, 16);
    });
    maker.join();
    const ExprRef here = MakeConst(42, 8);
    EXPECT_NE(from_thread.get(), here.get());
    EXPECT_TRUE(Expr::Equal(from_thread, here));
    EXPECT_EQ(from_thread->hash(), here->hash());
    EXPECT_EQ(from_thread->constant_value(), 42u);
    EXPECT_EQ(big_from_thread->constant_value(), 4242u);

    // Threads sharing this thread's nodes and making their own: every
    // reference count change is atomic, so concurrent copies and drops of
    // one interned node are safe.
    std::vector<std::thread> workers;
    std::vector<ExprRef> own(4);
    for (size_t t = 0; t < own.size(); ++t) {
        workers.emplace_back([&, t] {
            for (int i = 0; i < 1000; ++i) {
                const ExprRef copy = here;
                const ExprRef sum = MakeAdd(MakeVar(1, 8), copy);
                EXPECT_EQ(sum->b().get(), here.get());
                own[t] = MakeConst(42, 8);
            }
        });
    }
    for (std::thread& worker : workers) {
        worker.join();
    }
    // The workers' nodes outlive their threads and are released here.
    for (size_t t = 0; t < own.size(); ++t) {
        EXPECT_NE(own[t].get(), here.get());
        for (size_t u = t + 1; u < own.size(); ++u) {
            EXPECT_NE(own[t].get(), own[u].get());
        }
        EXPECT_TRUE(Expr::Equal(own[t], here));
    }
}

// A long exploration keeps hundreds of thousands of nodes alive through
// path conditions and SymValues: the handle stays one pointer,
static_assert(sizeof(ExprRef) == 8, "expression handles stay 8 bytes");
// a node fills one 48-byte malloc chunk,
static_assert(sizeof(Expr) == 40, "expression nodes stay 40 bytes");
// and a concolic value (every SymStr byte is one) stays 24 bytes.
static_assert(sizeof(lowlevel::SymValue) == 24,
              "concolic values stay 24 bytes");

TEST(ExprHandle, CopyMoveAndResetTrackTheCount)
{
    ExprRef x = MakeVar(1, 8);
    EXPECT_EQ(x.use_count(), 1);
    ExprRef copy = x;
    EXPECT_EQ(copy, x);
    EXPECT_EQ(x.use_count(), 2);
    EXPECT_EQ(copy.use_count(), 2);

    ExprRef moved = std::move(copy);
    EXPECT_EQ(copy, nullptr);
    EXPECT_FALSE(copy);
    EXPECT_EQ(copy.use_count(), 0);
    EXPECT_EQ(moved.get(), x.get());
    EXPECT_EQ(x.use_count(), 2);

    ExprRef assigned;
    assigned = moved;
    EXPECT_EQ(x.use_count(), 3);
    assigned = std::move(moved);
    EXPECT_EQ(moved, nullptr);
    EXPECT_EQ(x.use_count(), 2);

    // Self-assignment, by copy and by move, keeps the reference.
    ExprRef& alias = assigned;
    assigned = alias;
    EXPECT_EQ(x.use_count(), 2);
    assigned = std::move(alias);
    EXPECT_EQ(assigned.get(), x.get());
    EXPECT_EQ(x.use_count(), 2);

    assigned.reset();
    EXPECT_EQ(assigned, nullptr);
    EXPECT_NE(x, nullptr);
    EXPECT_EQ(x.use_count(), 1);
    assigned.reset();  // Resetting a null handle is a no-op.
    EXPECT_EQ(assigned.use_count(), 0);

    // Assigning another node drops the old one's reference.
    ExprRef y = MakeVar(2, 8);
    assigned = x;
    assigned = y;
    EXPECT_EQ(x.use_count(), 1);
    EXPECT_EQ(y.use_count(), 2);
    EXPECT_NE(assigned, x);
}

TEST(ExprHandle, ChildrenHoldReferences)
{
    const ExprRef x = MakeVar(1, 16);
    ExprRef sum = MakeAdd(x, MakeVar(2, 16));
    EXPECT_EQ(x.use_count(), 2);
    EXPECT_EQ((*sum).a(), x);
    sum.reset();
    EXPECT_EQ(x.use_count(), 1);
}

TEST(ExprHandle, LeavesHaveNullChildren)
{
    // A leaf keeps its payload where an inner node keeps its third child;
    // the accessors still read a leaf's children as null and an inner
    // node's payloads as 0.
    for (const ExprRef& leaf :
         {MakeConst(0xdeadbeef, 32), MakeConst(~0ull, 64), MakeConst(5, 8),
          MakeVar(0xffffffffu, 16), MakeVar(9, 1)}) {
        EXPECT_EQ(leaf->a(), nullptr) << leaf->ToString();
        EXPECT_EQ(leaf->b(), nullptr) << leaf->ToString();
        EXPECT_EQ(leaf->c(), nullptr) << leaf->ToString();
    }
    EXPECT_EQ(MakeConst(~0ull, 64)->constant_value(), ~0ull);
    EXPECT_EQ(MakeConst(~0ull, 64)->var_id(), 0u);
    EXPECT_EQ(MakeVar(0xffffffffu, 16)->var_id(), 0xffffffffu);
    EXPECT_EQ(MakeVar(0xffffffffu, 16)->constant_value(), 0u);

    const ExprRef cond = MakeEq(MakeVar(1, 8), MakeVar(2, 8));
    const ExprRef ite = MakeIte(cond, MakeVar(3, 8), MakeConst(4, 8));
    EXPECT_EQ(ite->c()->constant_value(), 4u);
    EXPECT_EQ(ite->constant_value(), 0u);
    EXPECT_EQ(ite->var_id(), 0u);
    EXPECT_EQ(ite->ToString(), "(ite (eq v1 v2) v3 4:8)");
    // A leaf equals only a leaf of the same kind, width and payload.
    EXPECT_TRUE(Expr::Equal(MakeVar(3, 8), ite->b()));
    EXPECT_FALSE(Expr::Equal(MakeVar(4, 8), ite->c()));
    EXPECT_FALSE(Expr::Equal(MakeVar(3, 8), MakeVar(3, 16)));
    EXPECT_FALSE(Expr::Equal(MakeConst(300, 16), MakeConst(301, 16)));
}

TEST(ExprHandle, RawPointerTakesANewReference)
{
    ExprRef original = MakeAdd(MakeVar(1, 32), MakeVar(2, 32));
    const Expr* raw = original.get();
    const uint64_t hash = raw->hash();
    const ExprRef again(raw);
    EXPECT_EQ(again.get(), raw);
    EXPECT_EQ(again.use_count(), 2);
    original.reset();
    EXPECT_EQ(again.use_count(), 1);
    // The node is still alive and whole.
    EXPECT_EQ(again->hash(), hash);
    EXPECT_EQ(again->kind(), ExprKind::kAdd);
    EXPECT_EQ(again->a()->var_id(), 1u);
    EXPECT_EQ(again->b()->var_id(), 2u);
    EXPECT_EQ(ExprRef(static_cast<const Expr*>(nullptr)), nullptr);
}

TEST(ExprHandle, VariablesPrintTheirId)
{
    EXPECT_EQ(MakeAdd(MakeVar(7, 8), MakeConst(3, 8))->ToString(),
              "(add v7 3:8)");
}

TEST(ExprHandle, ThreadsShareOneNode)
{
    // Every count change is atomic: threads copying and dropping handles
    // to one node leave its count exact.
    const ExprRef shared = MakeAdd(MakeVar(1, 32), MakeVar(2, 32));
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared] {
            for (int i = 0; i < 2000; ++i) {
                ExprRef copy = shared;
                ExprRef moved = std::move(copy);
                const ExprRef raw(moved.get());
                EXPECT_EQ(raw->kind(), ExprKind::kAdd);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(shared.use_count(), 1);
}

TEST(ExprHandle, DroppingADeepChainUsesConstantStack)
{
    // A recursive release would need a stack frame per node: a million
    // frames overflow the default 8 MB stack.
    const ExprRef x = MakeVar(1, 32);
    ExprRef chain = x;
    for (int i = 0; i < 1'000'000; ++i) {
        chain = MakeAdd(chain, x);
    }
    EXPECT_EQ(x.use_count(), 1'000'002);
    chain.reset();
    EXPECT_EQ(x.use_count(), 1);
}

}  // namespace
}  // namespace chef::solver
