/// \file
/// Tests for constraint-independence slicing: variable collection across
/// every node kind that nests operands, transitive slice merging, the
/// solver integration (per-slice caching, UpperBound), outcome
/// equivalence between the sliced and unsliced pipelines, and the
/// collector's reusable per-thread scratch.

#include "solver/independence.h"

#include <gtest/gtest.h>

#include <climits>
#include <functional>
#include <thread>
#include <unordered_set>

#include "solver/solver.h"
#include "support/rng.h"

namespace chef::solver {
namespace {

// ---------------------------------------------------------------------------
// Variable collection.
// ---------------------------------------------------------------------------

TEST(CollectVarIds, WalksIteConditionAndBothArms)
{
    const ExprRef c = MakeVar(1, 1);
    const ExprRef t = MakeVar(2, 8);
    const ExprRef e = MakeVar(3, 8);
    std::vector<uint32_t> ids;
    CollectVarIds(MakeIte(c, t, e), &ids);
    EXPECT_EQ(ids.size(), 3u);
    EXPECT_NE(std::find(ids.begin(), ids.end(), 1u), ids.end());
    EXPECT_NE(std::find(ids.begin(), ids.end(), 2u), ids.end());
    EXPECT_NE(std::find(ids.begin(), ids.end(), 3u), ids.end());
}

TEST(CollectVarIds, WalksConcatHalvesAndExtractOperand)
{
    const ExprRef high = MakeVar(7, 8);
    const ExprRef low = MakeVar(9, 8);
    std::vector<uint32_t> ids;
    CollectVarIds(MakeExtract(MakeConcat(high, low), 4, 8), &ids);
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_NE(std::find(ids.begin(), ids.end(), 7u), ids.end());
    EXPECT_NE(std::find(ids.begin(), ids.end(), 9u), ids.end());
}

TEST(CollectVarIds, WalksSignAndZeroExtension)
{
    const ExprRef x = MakeVar(3, 8);
    const ExprRef y = MakeVar(4, 8);
    std::vector<uint32_t> ids;
    CollectVarIds(MakeUlt(MakeSExt(x, 16), MakeZExt(y, 16)), &ids);
    EXPECT_EQ(ids.size(), 2u);
}

TEST(CollectVarIds, DeduplicatesAgainstExistingEntries)
{
    const ExprRef x = MakeVar(5, 8);
    std::vector<uint32_t> ids = {5};
    CollectVarIds(MakeEq(x, MakeConst(1, 8)), &ids);
    EXPECT_EQ(ids.size(), 1u);
    // A shared node referenced twice counts once.
    CollectVarIds(MakeEq(MakeAdd(x, x), MakeConst(2, 8)), &ids);
    EXPECT_EQ(ids.size(), 1u);
}

// ---------------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------------

ExprRef
ByteEq(uint32_t id, uint64_t value)
{
    return MakeEq(MakeVar(id, 8), MakeConst(value, 8));
}

TEST(PartitionIndependent, DisjointAssertionsEachFormASlice)
{
    const std::vector<ExprRef> assertions = {ByteEq(1, 10), ByteEq(2, 20),
                                             ByteEq(3, 30)};
    const auto slices = PartitionIndependent(assertions);
    ASSERT_EQ(slices.size(), 3u);
    // Ordered by first occurrence; each constrains exactly its variable.
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(slices[i].assertions.size(), 1u);
        ASSERT_EQ(slices[i].var_ids.size(), 1u);
        EXPECT_EQ(slices[i].var_ids[0], static_cast<uint32_t>(i + 1));
    }
}

TEST(PartitionIndependent, SharedVariableMergesTransitively)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef y = MakeVar(2, 8);
    const ExprRef z = MakeVar(3, 8);
    // {x,y} and {y,z} chain into one slice even though x and z never
    // appear together; the unrelated {w} stays separate.
    const std::vector<ExprRef> assertions = {
        MakeEq(MakeAdd(x, y), MakeConst(5, 8)),
        MakeUlt(y, z),
        ByteEq(9, 1),
    };
    const auto slices = PartitionIndependent(assertions);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0].assertions.size(), 2u);
    EXPECT_EQ(slices[0].var_ids, (std::vector<uint32_t>{1, 2, 3}));
    EXPECT_EQ(slices[1].assertions.size(), 1u);
    EXPECT_EQ(slices[1].var_ids, (std::vector<uint32_t>{9}));
}

TEST(PartitionIndependent, LaterAssertionCanBridgeEarlierSlices)
{
    const ExprRef x = MakeVar(1, 8);
    const ExprRef y = MakeVar(2, 8);
    // {x} and {y} look independent until the third assertion links them.
    const std::vector<ExprRef> assertions = {
        MakeUlt(x, MakeConst(50, 8)),
        MakeUlt(y, MakeConst(50, 8)),
        MakeEq(MakeAdd(x, y), MakeConst(60, 8)),
    };
    const auto slices = PartitionIndependent(assertions);
    ASSERT_EQ(slices.size(), 1u);
    EXPECT_EQ(slices[0].assertions.size(), 3u);
    // Original relative order is preserved inside the slice.
    EXPECT_TRUE(Expr::Equal(slices[0].assertions[0], assertions[0]));
    EXPECT_TRUE(Expr::Equal(slices[0].assertions[2], assertions[2]));
}

TEST(PartitionIndependent, VariableFreeAssertionFormsOwnSlice)
{
    // The solver's constant folder removes literal constants before
    // partitioning, but the partition itself must stay sound for any
    // variable-free shape it is handed.
    const std::vector<ExprRef> assertions = {MakeBool(true), ByteEq(1, 2)};
    const auto slices = PartitionIndependent(assertions);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_TRUE(slices[0].var_ids.empty());
}

// ---------------------------------------------------------------------------
// Solver integration.
// ---------------------------------------------------------------------------

TEST(SlicedSolver, PrefixSlicesAnswerFromCacheAcrossQueries)
{
    Solver solver;
    // Query 1 proves {b1==11}; query 2 = {b1==11, b2==22} must only pay a
    // SAT call for the new slice.
    ASSERT_EQ(solver.Solve({ByteEq(1, 11)}, nullptr), QueryResult::kSat);
    const uint64_t sat_calls = solver.stats().sat_calls;
    Assignment model;
    ASSERT_EQ(solver.Solve({ByteEq(1, 11), ByteEq(2, 22)}, &model),
              QueryResult::kSat);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls + 1);
    EXPECT_GE(solver.stats().cache_hits, 1u);
    EXPECT_EQ(solver.stats().sliced_queries, 1u);
    // The merged model assigns both slices' variables explicitly.
    EXPECT_EQ(model.Get(1), 11u);
    EXPECT_EQ(model.Get(2), 22u);
    EXPECT_TRUE(model.Has(1));
    EXPECT_TRUE(model.Has(2));
}

TEST(SlicedSolver, UnsatSliceDecidesTheWholeQuery)
{
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    const std::vector<ExprRef> query = {
        ByteEq(2, 7),
        MakeUlt(x, MakeConst(5, 8)),
        MakeUgt(x, MakeConst(10, 8)),
    };
    EXPECT_EQ(solver.Solve(query, nullptr), QueryResult::kUnsat);
    EXPECT_EQ(solver.stats().sliced_queries, 1u);
}

TEST(SlicedSolver, SlicingShrinksCacheKeys)
{
    // With slicing, {a} and {a, b} share the per-slice entry for {a}; the
    // unsliced pipeline caches the two queries under unrelated keys.
    Solver::Options sliced_options;
    sliced_options.enable_independence_slicing = true;
    Solver sliced(sliced_options);
    ASSERT_EQ(sliced.Solve({ByteEq(1, 1)}, nullptr), QueryResult::kSat);
    ASSERT_EQ(sliced.Solve({ByteEq(1, 1), ByteEq(2, 2)}, nullptr),
              QueryResult::kSat);
    EXPECT_GE(sliced.stats().cache_hits, 1u);

    Solver::Options unsliced_options;
    unsliced_options.enable_independence_slicing = false;
    Solver unsliced(unsliced_options);
    ASSERT_EQ(unsliced.Solve({ByteEq(1, 1)}, nullptr), QueryResult::kSat);
    ASSERT_EQ(unsliced.Solve({ByteEq(1, 1), ByteEq(2, 2)}, nullptr),
              QueryResult::kSat);
    EXPECT_EQ(unsliced.stats().cache_hits, 0u);
}

TEST(SlicedSolver, UpperBoundUnaffectedByIndependentClutter)
{
    // The binary search augments the query with constraints on `value`;
    // the unrelated byte constraint lives in its own slice and must not
    // perturb the bound.
    Solver solver;
    const ExprRef x = MakeVar(1, 8);
    uint64_t bound = 0;
    ASSERT_TRUE(solver.UpperBound(
        {MakeUlt(x, MakeConst(57, 8)), ByteEq(2, 3)}, x, &bound));
    EXPECT_EQ(bound, 56u);
    EXPECT_GT(solver.stats().sliced_queries, 0u);

    // Repeating the search answers every probe from the cache.
    const uint64_t sat_calls = solver.stats().sat_calls;
    ASSERT_TRUE(solver.UpperBound(
        {MakeUlt(x, MakeConst(57, 8)), ByteEq(2, 3)}, x, &bound));
    EXPECT_EQ(bound, 56u);
    EXPECT_EQ(solver.stats().sat_calls, sat_calls);
}

// ---------------------------------------------------------------------------
// Equivalence: sliced vs. unsliced outcomes on randomized queries.
// ---------------------------------------------------------------------------

/// Builds a random query mixing connected and independent assertions over
/// a small pool of 8-bit variables, with shapes (ite/concat/extract/ext)
/// the variable walk must handle.
std::vector<ExprRef>
RandomQuery(Rng& rng)
{
    std::vector<ExprRef> vars;
    for (uint32_t id = 1; id <= 6; ++id) {
        vars.push_back(MakeVar(id, 8));
    }
    std::vector<ExprRef> query;
    const int n = 2 + static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < n; ++i) {
        const ExprRef& a = vars[rng.NextBelow(vars.size())];
        const ExprRef& b = vars[rng.NextBelow(vars.size())];
        const uint64_t k = rng.NextBelow(256);
        ExprRef assertion;
        switch (rng.NextBelow(6)) {
          case 0:
            assertion = MakeEq(a, MakeConst(k, 8));
            break;
          case 1:
            assertion = MakeUlt(a, MakeConst(1 + k % 255, 8));
            break;
          case 2:
            assertion = MakeEq(MakeAdd(a, b), MakeConst(k, 8));
            break;
          case 3:
            assertion = MakeUlt(MakeExtract(MakeConcat(a, b), 4, 8),
                                MakeConst(1 + k % 255, 8));
            break;
          case 4:
            assertion = MakeSlt(MakeSExt(a, 16), MakeConst(k, 16));
            break;
          default:
            assertion = MakeEq(
                MakeIte(MakeUlt(a, MakeConst(128, 8)), a, b),
                MakeConst(k, 8));
            break;
        }
        query.push_back(assertion);
    }
    return query;
}

class SlicingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlicingEquivalence, AllOptionCombosAgreeOnOutcomes)
{
    Rng rng(GetParam());
    std::vector<std::vector<ExprRef>> queries;
    for (int i = 0; i < 30; ++i) {
        queries.push_back(RandomQuery(rng));
    }

    // Reference: everything off (fresh blast per query, no slicing).
    Solver::Options reference_options;
    reference_options.enable_independence_slicing = false;
    reference_options.enable_incremental_sat = false;
    Solver reference(reference_options);

    std::vector<Solver> variants;
    for (const bool slicing : {false, true}) {
        for (const bool incremental : {false, true}) {
            Solver::Options options;
            options.enable_independence_slicing = slicing;
            options.enable_incremental_sat = incremental;
            variants.emplace_back(options);
        }
    }

    for (const auto& query : queries) {
        Assignment reference_model;
        const QueryResult expected =
            reference.Solve(query, &reference_model);
        for (Solver& variant : variants) {
            Assignment model;
            const QueryResult got = variant.Solve(query, &model);
            EXPECT_EQ(got, expected);
            if (got == QueryResult::kSat) {
                for (const ExprRef& assertion : query) {
                    EXPECT_EQ(EvalConcrete(assertion, model), 1u)
                        << assertion->ToString();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicingEquivalence,
                         ::testing::Values(101, 202, 303, 404, 505));


// ---------------------------------------------------------------------------
// The collector's reusable scratch: growth, prefilled output, generation
// wrap, and one collector per thread.
// ---------------------------------------------------------------------------

/// The collection as a recursive walk with a fresh hash set per call: the
/// ids in depth-first (a, b, c) order, minus those already in \p out.
std::vector<uint32_t>
ReferenceVarIds(const ExprRef& expr, std::vector<uint32_t> out)
{
    std::unordered_set<const Expr*> visited;
    std::vector<uint32_t> found;
    const std::function<void(const Expr*)> walk = [&](const Expr* e) {
        if (e == nullptr || !visited.insert(e).second) {
            return;
        }
        if (e->kind() == ExprKind::kVariable) {
            found.push_back(e->var_id());
            return;
        }
        walk(e->a().get());
        walk(e->b().get());
        walk(e->c().get());
    };
    walk(expr.get());
    std::unordered_set<uint32_t> seen(out.begin(), out.end());
    for (const uint32_t id : found) {
        if (seen.insert(id).second) {
            out.push_back(id);
        }
    }
    return out;
}

ExprRef
Byte(uint32_t id)
{
    return MakeVar(id, 8);
}

/// A chain whose every level names the two levels before it, over
/// \p num_vars variables starting at \p first_id: its DAG has about
/// 2 * \p steps nodes, but as a tree it would be exponentially large, so
/// only a walk that remembers visited nodes finishes.
ExprRef
SharedChain(int steps, uint32_t first_id, uint32_t num_vars)
{
    ExprRef older = Byte(first_id);
    ExprRef newer = Byte(first_id + 1);
    for (int i = 0; i < steps; ++i) {
        const ExprRef var = Byte(first_id + static_cast<uint32_t>(i) %
                                                num_vars);
        const ExprRef next = i % 2 == 0
                                 ? MakeAdd(newer, MakeXor(older, var))
                                 : MakeMul(newer, MakeOr(older, var));
        older = newer;
        newer = next;
    }
    return MakeUlt(newer, MakeConst(100, 8));
}

TEST(VarIdCollector, LargeSharedDagGrowsTheVisitedSet)
{
    const ExprRef dag = SharedChain(600, 1, 40);
    ASSERT_GT(CountNodes(dag), 1000u);
    VarIdCollector collector;
    std::vector<uint32_t> ids;
    collector.Collect(dag, &ids);
    EXPECT_EQ(ids, ReferenceVarIds(dag, {}));
    EXPECT_EQ(ids.size(), 40u);
    // Every inner node was remembered: the set grew well past its first
    // allocation, and stays grown for the next walk.
    EXPECT_GT(collector.visited_capacity(), 2000u);
    const ExprRef small = MakeEq(MakeAdd(Byte(3), Byte(77)), Byte(3));
    ids.clear();
    collector.Collect(small, &ids);
    EXPECT_EQ(ids, (std::vector<uint32_t>{3, 77}));
    ids.clear();
    collector.Collect(dag, &ids);
    EXPECT_EQ(ids, ReferenceVarIds(dag, {}));
}

TEST(VarIdCollector, DeduplicatesAgainstPrefilledOutput)
{
    // Ids of 2^20 and above take the scan path instead of the stamp
    // table; both must honour what the caller already holds, and the
    // caller's own entries (duplicates included) stay untouched.
    const uint32_t huge = 5'000'000;
    const ExprRef expr = MakeEq(MakeAdd(Byte(6), Byte(7)),
                                MakeAdd(Byte(huge), Byte(900)));
    std::vector<uint32_t> ids = {6, 900, huge, 6};
    CollectVarIds(expr, &ids);
    EXPECT_EQ(ids, (std::vector<uint32_t>{6, 900, huge, 6, 7}));
    EXPECT_EQ(ids, ReferenceVarIds(expr, {6, 900, huge, 6}));

    // An id stamped by an earlier collection is not "present" in the
    // next one.
    std::vector<uint32_t> fresh = {1};
    CollectVarIds(expr, &fresh);
    EXPECT_EQ(fresh, (std::vector<uint32_t>{1, 6, 7, huge, 900}));
}

TEST(VarIdCollector, QueryOverloadMatchesOneCallPerAssertion)
{
    Rng rng(77);
    for (int i = 0; i < 40; ++i) {
        std::vector<ExprRef> query = RandomQuery(rng);
        query.push_back(SharedChain(30, 1, 6));
        std::vector<uint32_t> one_by_one = {4};
        for (const ExprRef& assertion : query) {
            CollectVarIds(assertion, &one_by_one);
        }
        std::vector<uint32_t> whole = {4};
        CollectVarIds(query, &whole);
        EXPECT_EQ(whole, one_by_one);
    }
}

TEST(VarIdCollector, GenerationWrapKeepsResultsExact)
{
    // Start two collections short of the wrap. The third collection
    // wraps: 0 marks never-stamped slots and ids, so the counter must
    // skip it and clear the old stamps.
    VarIdCollector collector(UINT32_MAX - 2);
    const ExprRef dag = SharedChain(200, 1, 12);
    const ExprRef other = SharedChain(150, 5, 20);
    for (int round = 0; round < 6; ++round) {
        const ExprRef& expr = round % 2 == 0 ? dag : other;
        std::vector<uint32_t> ids = {7};
        collector.Collect(expr, &ids);
        EXPECT_EQ(ids, ReferenceVarIds(expr, {7})) << "round " << round;
    }
    // UINT32_MAX - 1, UINT32_MAX, then 1, 2, 3, 4.
    EXPECT_EQ(collector.generation(), 4u);
}

TEST(VarIdCollector, ThreadsCollectConcurrentlyOverSharedExpressions)
{
    // Every thread walks the same shared nodes with its own scratch;
    // each must see exactly the serial result.
    Rng rng(2024);
    std::vector<std::vector<ExprRef>> queries;
    for (int i = 0; i < 24; ++i) {
        queries.push_back(RandomQuery(rng));
        queries.back().push_back(SharedChain(100 + 10 * i, 1, 9));
    }
    std::vector<std::vector<uint32_t>> serial_ids;
    std::vector<std::vector<std::vector<uint32_t>>> serial_slices;
    for (const std::vector<ExprRef>& query : queries) {
        std::vector<uint32_t> ids;
        CollectVarIds(query, &ids);
        serial_ids.push_back(ids);
        std::vector<std::vector<uint32_t>> slice_ids;
        for (const IndependentSlice& slice : PartitionIndependent(query)) {
            slice_ids.push_back(slice.var_ids);
        }
        serial_slices.push_back(slice_ids);
    }

    constexpr int kThreads = 4;
    std::vector<int> mismatches(kThreads, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 20; ++round) {
                for (size_t q = 0; q < queries.size(); ++q) {
                    // Threads start at different queries.
                    const size_t i = (q + static_cast<size_t>(t) * 5) %
                                     queries.size();
                    std::vector<uint32_t> ids;
                    CollectVarIds(queries[i], &ids);
                    mismatches[t] += ids != serial_ids[i] ? 1 : 0;
                    std::vector<std::vector<uint32_t>> slice_ids;
                    for (const IndependentSlice& slice :
                         PartitionIndependent(queries[i])) {
                        slice_ids.push_back(slice.var_ids);
                    }
                    mismatches[t] += slice_ids != serial_slices[i] ? 1 : 0;
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    }
}

TEST(PartitionIndependent, LargeVariableIdsPartitionLikeSmallOnes)
{
    // Ids past the dense table share slots through the scan path.
    const uint32_t base = 3'000'000;
    const std::vector<ExprRef> assertions = {
        MakeUlt(Byte(base), Byte(base + 1)),
        ByteEq(2, 5),
        MakeEq(MakeAdd(Byte(base + 1), Byte(base + 2)), MakeConst(9, 8)),
        MakeUlt(Byte(2), Byte(base + 9)),
    };
    const auto slices = PartitionIndependent(assertions);
    ASSERT_EQ(slices.size(), 2u);
    EXPECT_EQ(slices[0].var_ids,
              (std::vector<uint32_t>{base, base + 1, base + 2}));
    EXPECT_EQ(slices[1].var_ids, (std::vector<uint32_t>{2, base + 9}));
    EXPECT_EQ(slices[1].assertions.size(), 2u);
}

}  // namespace
}  // namespace chef::solver
