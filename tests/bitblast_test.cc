/// \file
/// Property tests for the bit-blaster: for every operator, the circuit must
/// agree with concrete evaluation on random inputs, checked by asserting
/// "op(a,b) == expected" and "op(a,b) != expected" for satisfiability.

#include "solver/bitblast.h"

#include <gtest/gtest.h>

#include "solver/expr.h"
#include "solver/sat.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

/// Checks satisfiability of a single width-1 expression.
SatStatus
CheckSat(const ExprRef& assertion, Assignment* model = nullptr)
{
    CnfFormula cnf;
    BitBlaster blaster(&cnf);
    blaster.AssertTrue(assertion);
    SatSolver sat;
    const SatStatus status = sat.Solve(cnf);
    if (status == SatStatus::kSat && model != nullptr) {
        for (const auto& [var_id, info] : blaster.variables()) {
            model->Set(var_id, blaster.ModelValue(sat, var_id));
        }
    }
    return status;
}

TEST(BitBlast, VariableEqualsConstant)
{
    const ExprRef x = MakeVar(1, 8);
    Assignment model;
    ASSERT_EQ(CheckSat(MakeEq(x, MakeConst(0x5a, 8)), &model),
              SatStatus::kSat);
    EXPECT_EQ(model.Get(1), 0x5au);
}

TEST(BitBlast, UnsatEquality)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef both = MakeBoolAnd(MakeEq(x, MakeConst(1, 8)),
                                     MakeEq(x, MakeConst(2, 8)));
    EXPECT_EQ(CheckSat(both), SatStatus::kUnsat);
}

TEST(BitBlast, AdditionWitness)
{
    const ExprRef x = MakeVar(1, 16);
    const ExprRef y = MakeVar(2, 16);
    Assignment model;
    const ExprRef sum_is = MakeEq(MakeAdd(x, y), MakeConst(1000, 16));
    const ExprRef x_is = MakeEq(x, MakeConst(260, 16));
    ASSERT_EQ(CheckSat(MakeBoolAnd(sum_is, x_is), &model), SatStatus::kSat);
    EXPECT_EQ(model.Get(1), 260u);
    EXPECT_EQ(model.Get(2), 740u);
}

TEST(BitBlast, OverflowWraps)
{
    const ExprRef x = MakeVar(1, 8);
    // x + 1 == 0 forces x == 255.
    Assignment model;
    ASSERT_EQ(CheckSat(MakeEq(MakeAdd(x, MakeConst(1, 8)),
                              MakeConst(0, 8)),
                       &model),
              SatStatus::kSat);
    EXPECT_EQ(model.Get(1), 255u);
}

TEST(BitBlast, MultiplicationFactoring)
{
    // Find a factorization of 143 with both factors > 1 (11 * 13).
    const ExprRef x = MakeVar(1, 8);
    const ExprRef y = MakeVar(2, 8);
    const ExprRef product =
        MakeMul(MakeZExt(x, 16), MakeZExt(y, 16));
    const ExprRef wanted = MakeBoolAnd(
        MakeBoolAnd(MakeEq(product, MakeConst(143, 16)),
                    MakeUgt(x, MakeConst(1, 8))),
        MakeUgt(y, MakeConst(1, 8)));
    Assignment model;
    ASSERT_EQ(CheckSat(wanted, &model), SatStatus::kSat);
    const uint64_t xv = model.Get(1);
    const uint64_t yv = model.Get(2);
    EXPECT_EQ(xv * yv, 143u);
    EXPECT_GT(xv, 1u);
    EXPECT_GT(yv, 1u);
}

struct OpCase {
    const char* name;
    ExprRef (*make)(const ExprRef&, const ExprRef&);
    int width;
};

uint64_t
FnvHashSeedFor(const char* name)
{
    uint64_t h = 1469598103934665603ull;
    for (const char* p = name; *p; ++p) {
        h = (h ^ static_cast<uint64_t>(*p)) * 1099511628211ull;
    }
    return h;
}

class BitBlastOpAgreement : public ::testing::TestWithParam<OpCase> {};

/// For random concrete a, b: assert op(a,b) != concrete-eval result and
/// expect UNSAT (circuit agrees with evaluator), then assert equality and
/// expect SAT.
TEST_P(BitBlastOpAgreement, CircuitMatchesEvaluator)
{
    const OpCase& op = GetParam();
    Rng rng(FnvHashSeedFor(op.name));
    for (int round = 0; round < 12; ++round) {
        const int width = op.width;
        const uint64_t av = rng.Next() & WidthMask(width);
        uint64_t bv = rng.Next() & WidthMask(width);
        if (round == 0) {
            bv = 0;  // Exercise division-by-zero semantics.
        }
        const ExprRef xa = MakeVar(1, width);
        const ExprRef xb = MakeVar(2, width);
        Assignment concrete;
        concrete.Set(1, av);
        concrete.Set(2, bv);
        const ExprRef symbolic = op.make(xa, xb);
        const uint64_t expected = EvalConcrete(symbolic, concrete);

        const ExprRef pinned = MakeBoolAnd(
            MakeEq(xa, MakeConst(av, width)),
            MakeEq(xb, MakeConst(bv, width)));
        const ExprRef result_const =
            MakeConst(expected, symbolic->width());

        EXPECT_EQ(CheckSat(MakeBoolAnd(
                      pinned, MakeEq(symbolic, result_const))),
                  SatStatus::kSat)
            << op.name << " a=" << av << " b=" << bv;
        EXPECT_EQ(CheckSat(MakeBoolAnd(
                      pinned, MakeNe(symbolic, result_const))),
                  SatStatus::kUnsat)
            << op.name << " a=" << av << " b=" << bv;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BitBlastOpAgreement,
    ::testing::Values(
        OpCase{"add32", MakeAdd, 32}, OpCase{"sub32", MakeSub, 32},
        OpCase{"mul16", MakeMul, 16}, OpCase{"udiv12", MakeUDiv, 12},
        OpCase{"sdiv12", MakeSDiv, 12}, OpCase{"urem12", MakeURem, 12},
        OpCase{"srem12", MakeSRem, 12}, OpCase{"and32", MakeAnd, 32},
        OpCase{"or32", MakeOr, 32}, OpCase{"xor32", MakeXor, 32},
        OpCase{"shl16", MakeShl, 16}, OpCase{"lshr16", MakeLShr, 16},
        OpCase{"ashr16", MakeAShr, 16}, OpCase{"eq32", MakeEq, 32},
        OpCase{"ult32", MakeUlt, 32}, OpCase{"ule32", MakeUle, 32},
        OpCase{"slt32", MakeSlt, 32}, OpCase{"sle32", MakeSle, 32},
        OpCase{"add64", MakeAdd, 64}, OpCase{"ult64", MakeUlt, 64},
        OpCase{"add7", MakeAdd, 7}, OpCase{"mul7", MakeMul, 7},
        OpCase{"udiv8", MakeUDiv, 8}, OpCase{"slt8", MakeSlt, 8}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
        return info.param.name;
    });

TEST(BitBlast, ExtensionAndExtract)
{
    const ExprRef x = MakeVar(1, 8);
    // zext(x, 16) < 256 always.
    EXPECT_EQ(CheckSat(MakeUge(MakeZExt(x, 16), MakeConst(256, 16))),
              SatStatus::kUnsat);
    // sext of a negative 8-bit value has high bits set.
    Assignment model;
    ASSERT_EQ(CheckSat(MakeBoolAnd(
                  MakeEq(x, MakeConst(0x80, 8)),
                  MakeEq(MakeSExt(x, 16), MakeConst(0xff80, 16))),
                      &model),
              SatStatus::kSat);
    // extract(concat(h, l), 8, 8) == h.
    const ExprRef h = MakeVar(2, 8);
    const ExprRef l = MakeVar(3, 8);
    EXPECT_EQ(CheckSat(MakeNe(MakeExtract(MakeConcat(h, l), 8, 8), h)),
              SatStatus::kUnsat);
}

TEST(BitBlast, IteSelectsCorrectArm)
{
    const ExprRef c = MakeVar(1, 1);
    const ExprRef picked = MakeIte(c, MakeConst(10, 8), MakeConst(20, 8));
    Assignment model;
    ASSERT_EQ(CheckSat(MakeEq(picked, MakeConst(10, 8)), &model),
              SatStatus::kSat);
    EXPECT_EQ(model.Get(1), 1u);
    ASSERT_EQ(CheckSat(MakeEq(picked, MakeConst(20, 8)), &model),
              SatStatus::kSat);
    EXPECT_EQ(CheckSat(MakeEq(picked, MakeConst(30, 8))),
              SatStatus::kUnsat);
}

TEST(BitBlast, StringEqualityStyleConstraints)
{
    // Four byte variables constrained to spell "chef".
    std::vector<ExprRef> bytes;
    ExprRef all = MakeBool(true);
    const char* word = "chef";
    for (int i = 0; i < 4; ++i) {
        bytes.push_back(MakeVar(10 + i, 8));
        all = MakeBoolAnd(
            all, MakeEq(bytes[i],
                        MakeConst(static_cast<uint8_t>(word[i]), 8)));
    }
    Assignment model;
    ASSERT_EQ(CheckSat(all, &model), SatStatus::kSat);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(model.Get(10 + i), static_cast<uint8_t>(word[i]));
    }
}

TEST(BitBlast, RepeatedConstantsLoadTheSameCnf)
{
    // Many uses of a few small constants (interned: one node each per
    // width) next to larger ones (a node per use). Every constant bit is
    // the fixed true literal or its negation, so sharing the constant
    // nodes must not change the formula: the counts are those of a
    // blaster that saw a fresh node per use.
    ExprRef all = MakeBool(true);
    for (uint32_t i = 0; i < 12; ++i) {
        const ExprRef x = MakeVar(100 + i, 8);
        const ExprRef wide = MakeZExt(x, 16);
        all = MakeBoolAnd(all, MakeUlt(MakeAdd(x, MakeConst(7, 8)),
                                       MakeConst(200, 8)));
        all = MakeBoolAnd(all, MakeNe(MakeMul(x, MakeConst(3, 8)),
                                      MakeConst(1, 8)));
        all = MakeBoolAnd(all, MakeUle(MakeAdd(wide, MakeConst(300, 16)),
                                       MakeConst(1000 + i, 16)));
        all = MakeBoolAnd(all, MakeNe(MakeAnd(wide, MakeConst(255, 16)),
                                      MakeConst(i, 16)));
    }
    CnfFormula cnf;
    BitBlaster blaster(&cnf);
    blaster.AssertTrue(all);
    EXPECT_EQ(cnf.num_vars(), 1423);
    EXPECT_EQ(cnf.num_clauses(), 4425u);
    SatSolver sat;
    EXPECT_EQ(sat.Solve(cnf), SatStatus::kSat);
}

}  // namespace
}  // namespace chef::solver
