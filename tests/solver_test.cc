/// \file
/// Tests for the Solver facade: caching, model reuse, upper bound search.

#include "solver/solver.h"

#include <gtest/gtest.h>

#include "support/rng.h"

namespace chef::solver {
namespace {

TEST(Solver, EmptyQueryIsSat)
{
    Solver solver;
    Assignment model;
    EXPECT_EQ(solver.Solve({}, &model), QueryResult::kSat);
}

TEST(Solver, TrivialTrueAssertionIsSat)
{
    Solver solver;
    EXPECT_EQ(solver.Solve({MakeBool(true)}, nullptr), QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST(Solver, TrivialFalseAssertionIsUnsat)
{
    Solver solver;
    EXPECT_EQ(solver.Solve({MakeBool(false)}, nullptr),
              QueryResult::kUnsat);
    EXPECT_EQ(solver.stats().sat_calls, 0u);
}

TEST(Solver, ModelSatisfiesQuery)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 32);
    const ExprRef y = MakeVar(2, 32);
    const std::vector<ExprRef> assertions = {
        MakeUgt(x, MakeConst(100, 32)),
        MakeUlt(x, MakeConst(110, 32)),
        MakeEq(MakeAdd(x, y), MakeConst(300, 32)),
    };
    Assignment model;
    ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
    const uint64_t xv = model.Get(1);
    const uint64_t yv = model.Get(2);
    EXPECT_GT(xv, 100u);
    EXPECT_LT(xv, 110u);
    EXPECT_EQ((xv + yv) & 0xffffffffu, 300u);
}

TEST(Solver, ContradictionIsUnsat)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    EXPECT_EQ(solver.Solve({MakeUlt(x, MakeConst(5, 8)),
                            MakeUgt(x, MakeConst(10, 8))},
                           nullptr),
              QueryResult::kUnsat);
}

TEST(Solver, QueryCacheHitsOnRepeat)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 16);
    const std::vector<ExprRef> assertions = {
        MakeEq(x, MakeConst(77, 16))};
    Assignment model;
    ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    // Structurally identical but freshly constructed assertion.
    const ExprRef x2 = MakeVar(1, 16);
    Assignment model2;
    ASSERT_EQ(solver.Solve({MakeEq(x2, MakeConst(77, 16))}, &model2),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GE(solver.stats().cache_hits, 1u);
    EXPECT_EQ(model2.Get(1), 77u);
}

TEST(Solver, CacheIsOrderInsensitive)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 16);
    const ExprRef a = MakeUgt(x, MakeConst(10, 16));
    const ExprRef b = MakeUlt(x, MakeConst(20, 16));
    ASSERT_EQ(solver.Solve({a, b}, nullptr), QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    ASSERT_EQ(solver.Solve({b, a}, nullptr), QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
}

TEST(Solver, ModelReuseAvoidsSatCalls)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 32);
    Assignment model;
    ASSERT_EQ(solver.Solve({MakeUgt(x, MakeConst(50, 32))}, &model),
              QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    // A weaker query is satisfied by the cached model without a SAT call.
    ASSERT_EQ(solver.Solve({MakeUgt(x, MakeConst(10, 32))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GE(solver.stats().model_reuse_hits, 1u);
}

TEST(Solver, DisablingCacheForcesResolve)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, 2u);
}

TEST(Solver, TinyLearnedClauseCapKeepsOutcomesCorrect)
{
    // An aggressive purge cap must never change sat/unsat answers — only
    // how much past search effort the persistent session remembers. (64
    // forces several purges on this battery but is not degenerate: caps
    // near zero turn every conflict into a root restart.)
    Solver::Options options;
    options.max_learned_clauses = 64;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver capped(options);
    Solver reference;

    // One path over one x * y, x + y circuit pair whose bound on x
    // tightens query by query, past every solution: each query's cone
    // holds the previous one's, so the session keeps extending a single
    // clause database (a purge needs one that outlives many conflicts),
    // and the last queries are unsat proofs that take thousands of
    // conflicts at this width.
    const ExprRef x = MakeVar(1, 20);
    const ExprRef y = MakeVar(2, 20);
    const uint64_t x0 = 0x3a7;
    const uint64_t y0 = 0x95;
    std::vector<ExprRef> path = {
        MakeEq(MakeMul(x, y), MakeConst(x0 * y0, 20)),
        MakeEq(MakeAdd(x, y), MakeConst(x0 + y0, 20)),
    };
    for (uint64_t i = 0; i < 12; ++i) {
        path.push_back(MakeUgt(x, MakeConst(i << 16, 20)));
        Assignment model;
        const QueryResult expected = reference.Solve(path, nullptr);
        ASSERT_EQ(capped.Solve(path, &model), expected) << i;
    }
    EXPECT_EQ(capped.stats().sat_rebuilds, 0u);
    // The capped session really purged (so the equal outcomes above
    // exercised the purge path); the uncapped reference never did.
    EXPECT_GT(capped.stats().learned_clauses_purged, 0u);
    EXPECT_EQ(reference.stats().learned_clauses_purged, 0u);
}

TEST(Solver, IncrementalPropagationsStayProportionalToTheCone)
{
    // Many concolic paths over the same input bytes, each path branching
    // on its own mixing circuits: a query's cone is a few circuits while
    // the session has blasted hundreds. Loading only the cone keeps the
    // incremental session's propagations near a fresh solve's; a session
    // that kept every past circuit loaded would propagate through all of
    // them while placing each call's assumptions.
    Solver::Options fresh_options;
    fresh_options.enable_query_cache = false;
    fresh_options.enable_model_reuse = false;
    fresh_options.enable_incremental_sat = false;
    Solver::Options session_options = fresh_options;
    session_options.enable_incremental_sat = true;
    Solver fresh(fresh_options);
    Solver session(session_options);

    constexpr uint32_t kBytes = 16;
    std::vector<ExprRef> bytes;
    for (uint32_t i = 0; i < kBytes; ++i) {
        bytes.push_back(MakeVar(i + 1, 8));
    }
    Rng rng(3);
    for (int path_index = 0; path_index < 40; ++path_index) {
        Assignment input;
        for (uint32_t i = 0; i < kBytes; ++i) {
            input.Set(i + 1, rng.NextBelow(256));
        }
        std::vector<ExprRef> path;
        for (int depth = 0; depth < 6; ++depth) {
            const ExprRef mixed = MakeXor(
                MakeAdd(MakeMul(MakeZExt(bytes[rng.NextBelow(kBytes)], 16),
                                MakeConst(3 + rng.NextBelow(250), 16)),
                        MakeZExt(bytes[rng.NextBelow(kBytes)], 16)),
                MakeConst(rng.NextBelow(1 << 16), 16));
            ExprRef cond = MakeUlt(
                mixed, MakeConst(EvalConcrete(mixed, input) + 1, 16));
            if (rng.Chance(0.5)) {
                cond = MakeBoolNot(
                    MakeUlt(mixed, MakeConst(rng.NextBelow(1 << 16), 16)));
            }
            if (EvalConcrete(cond, input) == 0) {
                cond = MakeBoolNot(cond);
            }
            std::vector<ExprRef> query = path;
            query.push_back(MakeBoolNot(cond));
            ASSERT_EQ(session.Solve(query, nullptr),
                      fresh.Solve(query, nullptr))
                << "path " << path_index << " depth " << depth;
            path.push_back(cond);
        }
    }
    ASSERT_EQ(session.stats().sat_calls, fresh.stats().sat_calls);
    ASSERT_GT(fresh.stats().sat_propagations, 0u);
    EXPECT_GT(session.stats().sat_rebuilds, 0u);
    EXPECT_LE(session.stats().sat_propagations,
              2 * fresh.stats().sat_propagations)
        << "fresh " << fresh.stats().sat_propagations;
}

TEST(Solver, UpperBoundExact)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    // x < 57 constrains max to 56.
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
}

TEST(Solver, UpperBoundUnconstrained)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({}, x, &bound));
    EXPECT_EQ(bound, 255u);
}

TEST(Solver, UpperBoundOfDerivedExpression)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    // max of 2*x for x < 10 is 18 (within 8 bits).
    const ExprRef doubled = MakeMul(x, MakeConst(2, 8));
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(10, 8))}, doubled,
                                  &bound));
    EXPECT_EQ(bound, 18u);
}

TEST(Solver, UpperBoundUnsatAssertions)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    EXPECT_FALSE(solver.UpperBound({MakeBool(false)}, x, &bound));

    // A non-trivially unsat assertion set also reports failure (and
    // leaves the output untouched).
    bound = 99;
    EXPECT_FALSE(solver.UpperBound({MakeUlt(x, MakeConst(5, 8)),
                                    MakeUgt(x, MakeConst(10, 8))},
                                   x, &bound));
    EXPECT_EQ(bound, 99u);
}

TEST(Solver, UpperBoundBinarySearchPopulatesQueryCache)
{
    // The binary search issues one query per probe; repeating the same
    // UpperBound call must answer every probe from the query cache.
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
    const uint64_t sat_calls = solver.stats().sat_calls;
    const uint64_t cache_hits = solver.stats().cache_hits;

    uint64_t bound_again = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound_again));
    EXPECT_EQ(bound_again, 56u);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
    EXPECT_GT(solver.stats().cache_hits, cache_hits);
}

TEST(Solver, UpperBoundWithCacheDisabledStillExact)
{
    Solver::Options options;
    options.enable_query_cache = false;
    options.enable_model_reuse = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound({MakeUlt(x, MakeConst(57, 8))}, x,
                                  &bound));
    EXPECT_EQ(bound, 56u);
    EXPECT_EQ(solver.stats().cache_hits, 0u);
    EXPECT_EQ(solver.stats().cache_bytes, 0u);
}

TEST(Solver, CacheBytesGaugeTracksInsertsAndSkipsUnsatModels)
{
    Solver solver;
    EXPECT_EQ(solver.stats().cache_bytes, 0u);

    const ExprRef x = MakeVar(1, 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    const uint64_t after_sat = solver.stats().cache_bytes;
    EXPECT_GT(after_sat, 0u);

    // An unsat entry stores no model: despite holding *two* assertions
    // to the sat entry's one, it must not cost more than the sat entry
    // plus one assertion ref (it would if the model were also stored).
    ASSERT_EQ(solver.Solve({MakeUlt(x, MakeConst(5, 16)),
                            MakeUgt(x, MakeConst(10, 16))},
                           nullptr),
              QueryResult::kUnsat);
    const uint64_t unsat_entry = solver.stats().cache_bytes - after_sat;
    EXPECT_GT(unsat_entry, 0u);
    EXPECT_LE(unsat_entry, after_sat + sizeof(ExprRef));

    // A cache hit does not grow the gauge.
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(5, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().cache_bytes, after_sat + unsat_entry);
    EXPECT_GT(solver.stats().solve_seconds, 0.0);
}

TEST(Solver, LocalCacheEvictsLruBeyondByteBudget)
{
    Solver::Options options;
    // Tiny budget: a handful of entries at most.
    options.max_cache_bytes = 600;
    options.enable_model_reuse = false;  // Force distinct cache inserts.
    Solver solver(options);

    const ExprRef x = MakeVar(1, 16);
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(0, 16))}, nullptr),
              QueryResult::kSat);
    const uint64_t one_entry = solver.stats().cache_bytes;
    ASSERT_GT(one_entry, 0u);

    uint64_t peak = 0;
    for (uint64_t v = 1; v < 40; ++v) {
        ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(v, 16))}, nullptr),
                  QueryResult::kSat);
        peak = std::max(peak, solver.stats().cache_bytes);
        // The gauge respects the budget at every step.
        EXPECT_LE(solver.stats().cache_bytes, options.max_cache_bytes);
    }
    EXPECT_GT(solver.stats().cache_evictions, 0u);
    // The gauge went *down* on eviction: at some point it held more than
    // it would after evicting one entry.
    EXPECT_LE(solver.stats().cache_bytes, peak);
    EXPECT_GE(peak, one_entry * 2);

    // Evicted (oldest) entries re-solve; the most recent still hits.
    const uint64_t hits = solver.stats().cache_hits;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(39, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().cache_hits, hits + 1);
    const uint64_t sat_calls = solver.stats().sat_calls;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(0, 16))}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls + 1);
}

TEST(Solver, SyntacticContradictionShortCircuitsBothOrientations)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef c = MakeUlt(x, MakeConst(5, 8));

    // Plain condition in the prefix, negation last.
    {
        Solver solver;
        EXPECT_EQ(solver.Solve({c, MakeBool(true), MakeBoolNot(c)},
                               nullptr),
                  QueryResult::kUnsat);
        EXPECT_EQ(solver.stats().sat_calls, 0u);
    }
    // Negation in the prefix, plain condition last.
    {
        Solver solver;
        EXPECT_EQ(solver.Solve({MakeBoolNot(c), c}, nullptr),
                  QueryResult::kUnsat);
        EXPECT_EQ(solver.stats().sat_calls, 0u);
    }
}

TEST(Solver, DisablingSlicingAndIncrementalStillSolves)
{
    Solver::Options options;
    options.enable_independence_slicing = false;
    options.enable_incremental_sat = false;
    Solver solver(options);
    const ExprRef x = MakeVar(1, 8);
    Assignment model;
    ASSERT_EQ(solver.Solve({MakeEq(x, MakeConst(9, 8)),
                            MakeEq(MakeVar(2, 8), MakeConst(4, 8))},
                           &model),
              QueryResult::kSat);
    EXPECT_EQ(model.Get(1), 9u);
    EXPECT_EQ(model.Get(2), 4u);
    EXPECT_EQ(solver.stats().sliced_queries, 0u);
    EXPECT_EQ(solver.stats().incremental_sat_calls, 0u);
}

/// Property: for random interval constraints, the model returned lies in
/// the interval and UpperBound returns the interval's top.
class SolverIntervalProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverIntervalProperty, ModelsRespectIntervals)
{
    Rng rng(GetParam());
    Solver solver;
    for (int round = 0; round < 10; ++round) {
        const uint64_t lo = rng.NextBelow(200);
        const uint64_t hi = lo + 1 + rng.NextBelow(55);
        const ExprRef x = MakeVar(1, 8);
        const std::vector<ExprRef> assertions = {
            MakeUge(x, MakeConst(lo, 8)), MakeUle(x, MakeConst(hi, 8))};
        Assignment model;
        ASSERT_EQ(solver.Solve(assertions, &model), QueryResult::kSat);
        EXPECT_GE(model.Get(1), lo);
        EXPECT_LE(model.Get(1), hi);
        uint64_t bound = 0;
        ASSERT_TRUE(solver.UpperBound(assertions, x, &bound));
        EXPECT_EQ(bound, std::min<uint64_t>(hi, 255));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverIntervalProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace chef::solver
