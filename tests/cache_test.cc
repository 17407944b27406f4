/// \file
/// Tests for the cross-worker shared solver cache: canonicalization,
/// hash-collision rejection, LRU eviction under a byte budget, the
/// counterexample store, solver integration (including the determinism
/// contract), and a multi-thread stress test.

#include "cache/shared_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/canonical.h"
#include "solver/solver.h"
#include "support/rng.h"

namespace chef::cache {
namespace {

using solver::Assignment;
using solver::ExprRef;
using solver::MakeConst;
using solver::MakeEq;
using solver::MakeUgt;
using solver::MakeUlt;
using solver::MakeVar;
using solver::QueryResult;
using solver::Solver;

std::vector<ExprRef>
IntervalQuery(uint32_t var_id, uint64_t lo, uint64_t hi)
{
    const ExprRef x = MakeVar(var_id, 16);
    return {MakeUgt(x, MakeConst(lo, 16)), MakeUlt(x, MakeConst(hi, 16))};
}

// ---------------------------------------------------------------------------
// Canonicalization.
// ---------------------------------------------------------------------------

TEST(Canonical, PermutedAssertionSetsShareTheCanonicalForm)
{
    const std::vector<ExprRef> ab = IntervalQuery(1, 10, 20);
    const std::vector<ExprRef> ba = {ab[1], ab[0]};

    EXPECT_EQ(QueryHash(ab), QueryHash(ba));
    const CanonicalQuery qa = Canonicalize(ab);
    const CanonicalQuery qb = Canonicalize(ba);
    EXPECT_EQ(qa.hash, qb.hash);
    ASSERT_EQ(qa.sorted_assertions.size(), qb.sorted_assertions.size());
    EXPECT_TRUE(SameAssertions(qa.sorted_assertions, qb.sorted_assertions));
}

TEST(Canonical, StructurallyEqualFreshExpressionsShareTheCanonicalForm)
{
    // Freshly constructed nodes, not shared refs.
    const CanonicalQuery a = Canonicalize(IntervalQuery(1, 10, 20));
    const CanonicalQuery b = Canonicalize(IntervalQuery(1, 10, 20));
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_TRUE(SameAssertions(a.sorted_assertions, b.sorted_assertions));
}

TEST(Canonical, DifferentQueriesDiffer)
{
    const CanonicalQuery a = Canonicalize(IntervalQuery(1, 10, 20));
    const CanonicalQuery b = Canonicalize(IntervalQuery(1, 10, 21));
    EXPECT_FALSE(
        SameAssertions(a.sorted_assertions, b.sorted_assertions));
}

// ---------------------------------------------------------------------------
// Cache lookup/insert.
// ---------------------------------------------------------------------------

TEST(SharedSolverCache, ReturnsInsertedResults)
{
    SharedSolverCache cache;
    const CanonicalQuery sat_query = Canonicalize(IntervalQuery(1, 5, 9));
    Assignment sat_model;
    sat_model.Set(1, 7);
    cache.Insert(sat_query, CachedResult::kSat, sat_model);

    const CanonicalQuery unsat_query =
        Canonicalize(IntervalQuery(2, 9, 5));
    cache.Insert(unsat_query, CachedResult::kUnsat, Assignment());

    CachedResult result;
    Assignment model;
    ASSERT_TRUE(cache.Lookup(sat_query, &result, &model));
    EXPECT_EQ(result, CachedResult::kSat);
    EXPECT_EQ(model.Get(1), 7u);

    ASSERT_TRUE(cache.Lookup(unsat_query, &result, nullptr));
    EXPECT_EQ(result, CachedResult::kUnsat);

    EXPECT_FALSE(
        cache.Lookup(Canonicalize(IntervalQuery(3, 1, 2)), &result,
                     nullptr));

    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 2u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(SharedSolverCache, UnsatEntriesStoreNoModel)
{
    SharedSolverCache cache;
    const CanonicalQuery query = Canonicalize(IntervalQuery(1, 9, 5));
    Assignment full_model;
    full_model.Set(1, 7);
    // Even if the caller passes a (bogus) model with an unsat result,
    // the cache must not store or serve it.
    cache.Insert(query, CachedResult::kUnsat, full_model);

    CachedResult result;
    Assignment model;
    model.Set(99, 1);  // Sentinel: must survive an unsat hit untouched.
    ASSERT_TRUE(cache.Lookup(query, &result, &model));
    EXPECT_EQ(result, CachedResult::kUnsat);
    EXPECT_TRUE(model.Has(99));
}

/// Hash collisions must be rejected by the exact structural comparison:
/// fabricate a key whose hash matches an existing entry but whose
/// assertions differ.
TEST(SharedSolverCache, HashCollisionsAreRejected)
{
    SharedSolverCache cache;
    const CanonicalQuery original = Canonicalize(IntervalQuery(1, 5, 9));
    Assignment model;
    model.Set(1, 7);
    cache.Insert(original, CachedResult::kSat, model);

    CanonicalQuery collider = Canonicalize(IntervalQuery(2, 100, 200));
    collider.hash = original.hash;  // Forced collision.

    CachedResult result;
    EXPECT_FALSE(cache.Lookup(collider, &result, nullptr));

    // Colliding insert: first writer wins, the original stays intact.
    cache.Insert(collider, CachedResult::kUnsat, Assignment());
    Assignment out;
    ASSERT_TRUE(cache.Lookup(original, &result, &out));
    EXPECT_EQ(result, CachedResult::kSat);
    EXPECT_EQ(out.Get(1), 7u);

    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_GE(stats.collisions, 2u);  // One lookup, one insert.
    EXPECT_EQ(stats.entries, 1u);
}

// ---------------------------------------------------------------------------
// Eviction.
// ---------------------------------------------------------------------------

TEST(SharedSolverCache, EvictsLruUnderByteBudget)
{
    SharedSolverCache::Options options;
    options.num_shards = 1;  // One shard: budget and LRU order are exact.
    options.max_bytes = 1024;
    SharedSolverCache cache(options);

    // Each entry costs ~160 bytes; 32 inserts must overflow 1024.
    std::vector<CanonicalQuery> queries;
    for (uint32_t i = 1; i <= 32; ++i) {
        queries.push_back(Canonicalize(IntervalQuery(i, 5, 9)));
        Assignment model;
        model.Set(i, 7);
        cache.Insert(queries.back(), CachedResult::kSat, model);
    }

    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 32u);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.bytes, options.max_bytes);
    EXPECT_LT(stats.entries, 32u);
    EXPECT_EQ(stats.entries, stats.inserts - stats.evictions);

    // LRU: the newest entry survives, the oldest was evicted.
    CachedResult result;
    EXPECT_TRUE(cache.Lookup(queries.back(), &result, nullptr));
    EXPECT_FALSE(cache.Lookup(queries.front(), &result, nullptr));
}

TEST(SharedSolverCache, LookupRefreshesLruPosition)
{
    SharedSolverCache::Options options;
    options.num_shards = 1;
    options.max_bytes = 1024;
    SharedSolverCache cache(options);

    const CanonicalQuery keeper = Canonicalize(IntervalQuery(1, 5, 9));
    cache.Insert(keeper, CachedResult::kUnsat, Assignment());
    CachedResult result;
    for (uint32_t i = 2; i <= 32; ++i) {
        // Touch the keeper before every insert so it never reaches the
        // LRU tail despite being the oldest entry.
        ASSERT_TRUE(cache.Lookup(keeper, &result, nullptr));
        cache.Insert(Canonicalize(IntervalQuery(i, 5, 9)),
                     CachedResult::kUnsat, Assignment());
    }
    EXPECT_GT(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.Lookup(keeper, &result, nullptr));
}

TEST(SharedSolverCache, OversizeEntriesAreSkippedNotCycled)
{
    SharedSolverCache::Options options;
    options.num_shards = 1;
    options.max_bytes = 64;  // Below the fixed per-entry overhead.
    SharedSolverCache cache(options);
    cache.Insert(Canonicalize(IntervalQuery(1, 5, 9)),
                 CachedResult::kUnsat, Assignment());
    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.inserts, 0u);
    EXPECT_EQ(stats.oversize_skips, 1u);
    EXPECT_EQ(stats.entries, 0u);
}

// ---------------------------------------------------------------------------
// Counterexample store.
// ---------------------------------------------------------------------------

TEST(SharedSolverCache, CounterexampleReuseAcrossQueries)
{
    SharedSolverCache cache;
    Assignment model;
    model.Set(1, 55);
    cache.PublishModel(model);

    const ExprRef x = MakeVar(1, 16);
    Assignment out;
    EXPECT_TRUE(cache.TryCounterexamples(
        {MakeUgt(x, MakeConst(50, 16))}, &out));
    EXPECT_EQ(out.Get(1), 55u);
    EXPECT_FALSE(cache.TryCounterexamples(
        {MakeUgt(x, MakeConst(60, 16))}, nullptr));

    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.models_published, 1u);
    EXPECT_EQ(stats.model_reuse_hits, 1u);
}

TEST(SharedSolverCache, CounterexampleStoreIsBoundedNewestFirst)
{
    SharedSolverCache::Options options;
    options.max_counterexamples = 4;
    SharedSolverCache cache(options);
    for (uint64_t v = 1; v <= 10; ++v) {
        Assignment model;
        model.Set(1, v);
        cache.PublishModel(model);
    }
    const ExprRef x = MakeVar(1, 16);
    // Values 1..6 were displaced; only 7..10 remain.
    EXPECT_FALSE(cache.TryCounterexamples(
        {MakeEq(x, MakeConst(6, 16))}, nullptr));
    Assignment out;
    EXPECT_TRUE(cache.TryCounterexamples(
        {MakeEq(x, MakeConst(7, 16))}, &out));
    // Newest first: an unconstrained probe sees the latest model.
    EXPECT_TRUE(cache.TryCounterexamples(
        {MakeUgt(x, MakeConst(0, 16))}, &out));
    EXPECT_EQ(out.Get(1), 10u);
}

// ---------------------------------------------------------------------------
// Solver integration.
// ---------------------------------------------------------------------------

TEST(SharedSolverCache, SecondSolverHitsFirstSolversResults)
{
    SharedSolverCache cache;
    Solver::Options options;
    options.shared_cache = &cache;

    Solver first(options);
    Assignment model;
    ASSERT_EQ(first.Solve(IntervalQuery(1, 100, 110), &model),
              QueryResult::kSat);
    ASSERT_EQ(first.Solve(IntervalQuery(2, 9, 5), nullptr),
              QueryResult::kUnsat);
    EXPECT_GT(first.stats().sat_calls, 0u);

    // A fresh solver (empty local cache, no recent models) answers the
    // same queries entirely from the shared cache.
    Solver second(options);
    Assignment second_model;
    ASSERT_EQ(second.Solve(IntervalQuery(1, 100, 110), &second_model),
              QueryResult::kSat);
    ASSERT_EQ(second.Solve(IntervalQuery(2, 9, 5), nullptr),
              QueryResult::kUnsat);
    EXPECT_EQ(second.stats().sat_calls, 0u);
    EXPECT_EQ(second.stats().shared_cache_hits, 2u);
    // The served model satisfies the interval.
    EXPECT_GT(second_model.Get(1), 100u);
    EXPECT_LT(second_model.Get(1), 110u);
}

TEST(SharedSolverCache, SiblingModelSatisfiesNewQueryWithoutSat)
{
    SharedSolverCache cache;
    Solver::Options options;
    options.shared_cache = &cache;

    Solver first(options);
    ASSERT_EQ(first.Solve(IntervalQuery(1, 50, 60), nullptr),
              QueryResult::kSat);

    // A *different* (weaker) query: not in the shared query cache, but
    // the first solver's published model satisfies it.
    Solver second(options);
    Assignment model;
    ASSERT_EQ(second.Solve(IntervalQuery(1, 10, 200), &model),
              QueryResult::kSat);
    EXPECT_EQ(second.stats().sat_calls, 0u);
    EXPECT_GE(second.stats().shared_model_reuse_hits, 1u);
    EXPECT_GT(model.Get(1), 10u);
    EXPECT_LT(model.Get(1), 200u);
}

/// Slice-aware prefetch: a solver that solves a multi-slice query
/// publishes it *whole* to the shared cache, so a sibling answers every
/// slice from one lookup and primes its local per-slice caches.
TEST(SharedSolverCache, WholeSlicedQueryPrimesSiblings)
{
    SharedSolverCache cache;
    Solver::Options options;
    options.shared_cache = &cache;

    // Two variable-disjoint slices: x1 in (10,20) and x2 in (30,40).
    std::vector<ExprRef> query = IntervalQuery(1, 10, 20);
    const std::vector<ExprRef> second_slice = IntervalQuery(2, 30, 40);
    query.insert(query.end(), second_slice.begin(), second_slice.end());

    Solver first(options);
    Assignment model;
    ASSERT_EQ(first.Solve(query, &model), QueryResult::kSat);
    EXPECT_EQ(first.stats().sliced_queries, 1u);
    EXPECT_EQ(first.stats().shared_whole_query_hits, 0u);

    // The sibling takes the whole query from one shared entry: no SAT
    // call, no per-slice shared probes, both slices primed locally.
    Solver second(options);
    Assignment sibling_model;
    ASSERT_EQ(second.Solve(query, &sibling_model), QueryResult::kSat);
    EXPECT_EQ(second.stats().sat_calls, 0u);
    EXPECT_EQ(second.stats().shared_cache_hits, 0u);
    EXPECT_EQ(second.stats().shared_whole_query_hits, 1u);
    EXPECT_EQ(second.stats().shared_slices_primed, 2u);
    EXPECT_GT(sibling_model.Get(1), 10u);
    EXPECT_LT(sibling_model.Get(1), 20u);
    EXPECT_GT(sibling_model.Get(2), 30u);
    EXPECT_LT(sibling_model.Get(2), 40u);

    // The primed local entries answer a slice sub-query without
    // touching the shared cache again.
    const uint64_t lookups_before = cache.stats().lookups;
    ASSERT_EQ(second.Solve(IntervalQuery(1, 10, 20), nullptr),
              QueryResult::kSat);
    EXPECT_GE(second.stats().cache_hits, 1u);
    EXPECT_EQ(cache.stats().lookups, lookups_before);
}

TEST(SharedSolverCache, WholeSlicedUnsatQueryIsPublished)
{
    SharedSolverCache cache;
    Solver::Options options;
    options.shared_cache = &cache;

    // One unsat slice (x3 > 9 && x3 < 5) decides the whole query.
    std::vector<ExprRef> query = IntervalQuery(3, 9, 5);
    const std::vector<ExprRef> sat_slice = IntervalQuery(4, 30, 40);
    query.insert(query.end(), sat_slice.begin(), sat_slice.end());

    Solver first(options);
    ASSERT_EQ(first.Solve(query, nullptr), QueryResult::kUnsat);

    Solver second(options);
    ASSERT_EQ(second.Solve(query, nullptr), QueryResult::kUnsat);
    EXPECT_EQ(second.stats().sat_calls, 0u);
    EXPECT_EQ(second.stats().shared_whole_query_hits, 1u);
    EXPECT_EQ(second.stats().shared_slices_primed, 0u);
}

/// The determinism contract: sat/unsat outcomes are identical with and
/// without sharing for any query sequence; only the satisfying model may
/// differ (and always satisfies the query). The model-dependent effect is
/// exactly why sharing is opt-in at the service layer.
TEST(SharedSolverCache, OutcomesAreCacheInvariant)
{
    Rng rng(77);
    std::vector<std::vector<ExprRef>> queries;
    for (int i = 0; i < 40; ++i) {
        const uint64_t lo = rng.NextBelow(300);
        const uint64_t hi = rng.NextBelow(300);
        queries.push_back(
            IntervalQuery(1 + static_cast<uint32_t>(i % 3), lo, hi));
    }

    SharedSolverCache cache;
    Solver::Options shared_options;
    shared_options.shared_cache = &cache;
    // Warm the cache with an independent solver first, so the solver
    // under test answers mostly from shared state.
    Solver warmup(shared_options);
    for (const auto& query : queries) {
        warmup.Solve(query, nullptr);
    }

    Solver plain;
    Solver shared(shared_options);
    for (const auto& query : queries) {
        Assignment plain_model;
        Assignment shared_model;
        const QueryResult plain_result =
            plain.Solve(query, &plain_model);
        const QueryResult shared_result =
            shared.Solve(query, &shared_model);
        EXPECT_EQ(plain_result, shared_result);
        if (shared_result == QueryResult::kSat) {
            for (const ExprRef& assertion : query) {
                EXPECT_EQ(EvalConcrete(assertion, shared_model), 1u);
            }
        }
    }
    EXPECT_GT(shared.stats().shared_cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency.
// ---------------------------------------------------------------------------

/// Hammer one cache from many threads with overlapping keys, lookups,
/// inserts, and model publishes. Run under ThreadSanitizer locally to
/// verify the striped locking; in a plain build this still exercises
/// LRU/byte-budget invariants under contention.
TEST(SharedSolverCache, MultiThreadStress)
{
    SharedSolverCache::Options options;
    options.num_shards = 4;
    options.max_bytes = 16 * 1024;  // Small: forces concurrent eviction.
    options.max_counterexamples = 8;
    SharedSolverCache cache(options);

    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 2000;
    constexpr uint32_t kKeySpace = 64;

    std::atomic<uint64_t> hits{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &hits, t] {
            Rng rng(1000 + static_cast<uint64_t>(t));
            for (int op = 0; op < kOpsPerThread; ++op) {
                const uint32_t var =
                    1 + static_cast<uint32_t>(rng.NextBelow(kKeySpace));
                const CanonicalQuery query =
                    Canonicalize(IntervalQuery(var, 5, 9));
                const uint64_t roll = rng.NextBelow(4);
                if (roll == 0) {
                    Assignment model;
                    model.Set(var, 7);
                    cache.Insert(query, CachedResult::kSat, model);
                } else if (roll == 1) {
                    Assignment model;
                    model.Set(var, 7);
                    cache.PublishModel(model);
                    cache.TryCounterexamples(query.sorted_assertions,
                                             &model);
                } else {
                    CachedResult result;
                    Assignment model;
                    if (cache.Lookup(query, &result, &model)) {
                        hits.fetch_add(1,
                                       std::memory_order_relaxed);
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    const SharedSolverCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
    EXPECT_GE(stats.hits, hits.load());
    EXPECT_LE(stats.bytes, options.max_bytes);
    EXPECT_EQ(stats.entries, stats.inserts - stats.evictions);
    EXPECT_GT(stats.inserts, 0u);
}

}  // namespace
}  // namespace chef::cache
