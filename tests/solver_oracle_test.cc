/// \file
/// Solver oracle: seeded random bit-vector formulas, run as concolic
/// sessions, must get the same answer from every solver configuration.
///
/// The generator builds terms from every kind the bit-blaster lowers
/// (arithmetic, division and remainder, shifts, bitwise operators, ite,
/// concat/extract, zero and sign extension, every comparison) at widths
/// 1-32, over a handful of inputs, and keeps a pool of terms so later
/// conditions share subterms with earlier ones. A session follows
/// concolic paths: each path is a list of branch conditions oriented to
/// hold under a concrete input, and each query is a path prefix plus the
/// negation of the next condition. The query cache and model reuse are
/// off, so every slice reaches the SAT backend.
///
/// Every query runs through the four slicing x incremental combinations
/// (one Solver each for the whole session) and a fresh one-shot
/// reference (a new Solver per query). The outcomes must agree, and every
/// kSat model must make every assertion evaluate true. The incremental
/// session's cone loading must run both of its branches: extending the
/// loaded set and rebuilding it from a lone cone.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "solver/solver.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

constexpr int kMaxWidth = 32;
constexpr int kNumInputs = 6;
constexpr int kMaxNonlinearWidth = 12;

uint64_t
Mask(int width)
{
    return (1ull << width) - 1;
}

class FormulaGenerator
{
  public:
    explicit FormulaGenerator(uint64_t seed) : rng_(seed)
    {
        for (uint32_t id = 1; id <= kNumInputs; ++id) {
            inputs_.push_back(MakeVar(id, RandomWidth()));
        }
    }

    Assignment RandomInput()
    {
        Assignment input;
        for (const ExprRef& var : inputs_) {
            input.Set(var->var_id(), rng_.Next() & Mask(var->width()));
        }
        return input;
    }

    /// A branch condition that holds under \p input.
    ExprRef Condition(const Assignment& input)
    {
        ExprRef cond = RawCondition(input, 2);
        if (EvalConcrete(cond, input) == 0) {
            cond = MakeBoolNot(cond);
        }
        return cond;
    }

  private:
    int RandomWidth()
    {
        return 1 + static_cast<int>(rng_.NextBelow(kMaxWidth));
    }

    /// A comparison (or a connective over two) of terms, usually against
    /// a constant near the term's concrete value, so conditions along a
    /// path imply or contradict each other often.
    ExprRef RawCondition(const Assignment& input, int depth)
    {
        if (depth > 0 && rng_.Chance(0.15)) {
            const ExprRef a = RawCondition(input, depth - 1);
            const ExprRef b = RawCondition(input, depth - 1);
            return rng_.Chance(0.5) ? MakeBoolAnd(a, b) : MakeBoolOr(a, b);
        }
        const int width = RandomWidth();
        const ExprRef lhs = Term(width, 2);
        ExprRef rhs;
        if (rng_.Chance(0.7)) {
            const uint64_t near = EvalConcrete(lhs, input) +
                                  rng_.NextBelow(7) - 3;
            rhs = MakeConst(near & Mask(width), width);
        } else {
            rhs = Term(width, 1);
        }
        switch (rng_.NextBelow(10)) {
          case 0: return MakeEq(lhs, rhs);
          case 1: return MakeNe(lhs, rhs);
          case 2: return MakeUlt(lhs, rhs);
          case 3: return MakeUle(lhs, rhs);
          case 4: return MakeUgt(lhs, rhs);
          case 5: return MakeUge(lhs, rhs);
          case 6: return MakeSlt(lhs, rhs);
          case 7: return MakeSle(lhs, rhs);
          case 8: return MakeSgt(lhs, rhs);
          default: return MakeSge(lhs, rhs);
        }
    }

    /// A term of exactly \p width bits.
    ExprRef Term(int width, int depth)
    {
        std::vector<ExprRef>& pool = pool_[width];
        if (!pool.empty() && rng_.Chance(0.35)) {
            return pool[rng_.NextBelow(pool.size())];
        }
        ExprRef term = depth == 0 || rng_.Chance(0.2)
                           ? Leaf(width)
                           : Node(width, depth - 1);
        pool.push_back(term);
        return term;
    }

    /// An input fitted to \p width, or a constant.
    ExprRef Leaf(int width)
    {
        if (rng_.Chance(0.2)) {
            return MakeConst(rng_.Next() & Mask(width), width);
        }
        const ExprRef& var = inputs_[rng_.NextBelow(inputs_.size())];
        return Fit(var, width);
    }

    ExprRef Fit(const ExprRef& term, int width)
    {
        if (term->width() == width) {
            return term;
        }
        if (term->width() > width) {
            const int offset = static_cast<int>(
                rng_.NextBelow(term->width() - width + 1));
            return MakeExtract(term, offset, width);
        }
        return rng_.Chance(0.5) ? MakeZExt(term, width)
                                : MakeSExt(term, width);
    }

    ExprRef Node(int width, int depth)
    {
        switch (rng_.NextBelow(19)) {
          case 0: return MakeAdd(Term(width, depth), Term(width, depth));
          case 1: return MakeSub(Term(width, depth), Term(width, depth));
          case 2: return MakeMul(Term(width, depth), Factor(width, depth));
          case 3: return MakeUDiv(Term(width, depth), Factor(width, depth));
          case 4: return MakeURem(Term(width, depth), Factor(width, depth));
          case 5: return MakeSDiv(Term(width, depth), Factor(width, depth));
          case 6: return MakeSRem(Term(width, depth), Factor(width, depth));
          case 7: return MakeAnd(Term(width, depth), Term(width, depth));
          case 8: return MakeOr(Term(width, depth), Term(width, depth));
          case 9: return MakeXor(Term(width, depth), Term(width, depth));
          case 10: return MakeShl(Term(width, depth), ShiftAmount(width));
          case 11: return MakeLShr(Term(width, depth), ShiftAmount(width));
          case 12: return MakeAShr(Term(width, depth), ShiftAmount(width));
          case 13: return MakeNot(Term(width, depth));
          case 14: return MakeNeg(Term(width, depth));
          case 15: {
              const ExprRef cond =
                  MakeUlt(Term(width, depth), Term(width, depth));
              return MakeIte(cond, Term(width, depth), Term(width, depth));
          }
          case 16: {
              if (width < 2) {
                  return MakeNot(Term(width, depth));
              }
              const int low = 1 + static_cast<int>(rng_.NextBelow(width - 1));
              return MakeConcat(Term(width - low, depth), Term(low, depth));
          }
          case 17: {
              const int wider = width + static_cast<int>(rng_.NextBelow(
                                            kMaxWidth - width + 1));
              return Fit(Term(wider, depth), width);
          }
          default: {
              if (width < 2) {
                  return MakeNeg(Term(width, depth));
              }
              const int narrower =
                  1 + static_cast<int>(rng_.NextBelow(width - 1));
              return Fit(Term(narrower, depth), width);
          }
        }
    }

    /// The second operand of a multiplication, division or remainder: a
    /// term at narrow widths, a constant past kMaxNonlinearWidth, where
    /// a product of two unknowns makes a query a factoring problem.
    ExprRef Factor(int width, int depth)
    {
        if (width <= kMaxNonlinearWidth) {
            return Term(width, depth);
        }
        return MakeConst(rng_.Next() & Mask(width), width);
    }

    /// Mostly in-range shift amounts, sometimes any term (amounts at or
    /// past the width shift everything out).
    ExprRef ShiftAmount(int width)
    {
        if (rng_.Chance(0.3)) {
            return Term(width, 1);
        }
        return MakeConst(rng_.NextBelow(width) & Mask(width), width);
    }

    Rng rng_;
    std::vector<ExprRef> inputs_;
    std::vector<ExprRef> pool_[kMaxWidth + 1];
};

struct Config {
    const char* name;
    bool slicing;
    bool incremental;
};

constexpr Config kConfigs[] = {
    {"sliced+incremental", true, true},
    {"sliced+fresh", true, false},
    {"unsliced+incremental", false, true},
    {"unsliced+fresh", false, false},
};

Solver::Options
OracleOptions(bool slicing, bool incremental)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    options.enable_independence_slicing = slicing;
    options.enable_incremental_sat = incremental;
    return options;
}

bool
ModelSatisfiesAll(const std::vector<ExprRef>& query, const Assignment& model)
{
    for (const ExprRef& assertion : query) {
        if (EvalConcrete(assertion, model) != 1) {
            return false;
        }
    }
    return true;
}

class SolverOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverOracle, EveryConfigurationAgreesWithAFreshSolve)
{
    constexpr int kPaths = 6;
    constexpr int kPathLength = 10;
    FormulaGenerator generator(GetParam());
    std::vector<std::unique_ptr<Solver>> sessions;
    for (const Config& config : kConfigs) {
        sessions.push_back(std::make_unique<Solver>(
            OracleOptions(config.slicing, config.incremental)));
    }

    int sat = 0;
    int unsat = 0;
    Assignment input = generator.RandomInput();
    for (int path_index = 0; path_index < kPaths; ++path_index) {
        std::vector<ExprRef> path;
        for (int i = 0; i < kPathLength; ++i) {
            path.push_back(generator.Condition(input));
        }
        Assignment next_input = generator.RandomInput();
        for (int k = 0; k < kPathLength; ++k) {
            std::vector<ExprRef> query(path.begin(), path.begin() + k);
            query.push_back(MakeBoolNot(path[k]));
            const std::string where = "path " + std::to_string(path_index) +
                                      " branch " + std::to_string(k);

            Solver fresh(OracleOptions(false, false));
            Assignment fresh_model;
            const QueryResult expected = fresh.Solve(query, &fresh_model);
            ASSERT_NE(expected, QueryResult::kUnknown) << where;
            if (expected == QueryResult::kSat) {
                ++sat;
                ASSERT_TRUE(ModelSatisfiesAll(query, fresh_model)) << where;
                next_input = fresh_model;
            } else {
                ++unsat;
            }
            for (size_t c = 0; c < sessions.size(); ++c) {
                Assignment model;
                ASSERT_EQ(sessions[c]->Solve(query, &model), expected)
                    << kConfigs[c].name << ", " << where;
                if (expected == QueryResult::kSat) {
                    ASSERT_TRUE(ModelSatisfiesAll(query, model))
                        << kConfigs[c].name << ", " << where;
                }
            }
        }
        // The next path follows a flipped branch's input, as a concolic
        // engine would.
        input = next_input;
    }
    // Both outcomes occur, or the agreement above says little.
    EXPECT_GT(sat, 0);
    EXPECT_GT(unsat, 0);
    // Each incremental session rebuilt its loaded set from a lone cone
    // and extended a non-empty one (every call after the first that is
    // not a rebuild extends).
    for (size_t c = 0; c < sessions.size(); ++c) {
        if (!kConfigs[c].incremental) {
            continue;
        }
        const SolverStats& stats = sessions[c]->stats();
        EXPECT_GT(stats.sat_rebuilds, 0u) << kConfigs[c].name;
        EXPECT_GT(stats.incremental_sat_calls, stats.sat_rebuilds + 1)
            << kConfigs[c].name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverOracle,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace chef::solver
