/// \file
/// Tests for the attribution profiler: charge/snapshot correctness,
/// stripe spilling under location counts past one stripe's capacity,
/// the allocation-free hot path, order-independent snapshot merging and
/// idempotent gossip redelivery, JSON round trips with unknown-key
/// tolerance, folded-stack and hot-location rendering, frontier
/// introspection, and a 2-shard loopback batch whose cluster table must
/// equal the single-shard table on every deterministic column.

#include "obs/attribution.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "service/job.h"
#include "shard/coordinator.h"
#include "support/json.h"

// --------------------------------------------------------------------------
// Allocation counting for the hot-path test: replace global operator new
// so the test can assert that Charge / ChargeWithParent / ChargeSolver
// perform zero heap allocations. Counting is a relaxed atomic bump, so
// the replacement does not perturb what it measures. (Each tests/*.cc
// file builds into its own binary, so this replacement is local.)

static std::atomic<uint64_t> g_allocations{0};

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* ptr = std::malloc(size);
    if (ptr == nullptr) {
        throw std::bad_alloc();
    }
    return ptr;
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// come from the same malloc the replaced deletes free.
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void* ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace chef::obs {
namespace {

using support::JsonValue;
using support::JsonWriter;
using support::ParseJson;

// --------------------------------------------------------------------------
// Charging and snapshots.

TEST(Attribution, ChargesAccumulatePerLocation)
{
    AttributionProfiler profiler("py/argparse");
    profiler.Charge(0x10, AttributionProfiler::kSteps, 5);
    profiler.Charge(0x10, AttributionProfiler::kSteps, 2);
    profiler.Charge(0x10, AttributionProfiler::kForks);
    profiler.Charge(0x20, AttributionProfiler::kNewFingerprints, 3);
    profiler.ChargeWithParent(0x30, 0x10,
                              AttributionProfiler::kAssumeFailures);

    const AttributionSnapshot snapshot = profiler.Snapshot();
    ASSERT_EQ(snapshot.workloads.size(), 1u);
    const std::map<uint64_t, AttributionRow>& table =
        snapshot.workloads.at("py/argparse");
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.at(0x10).steps, 7u);
    EXPECT_EQ(table.at(0x10).forks, 1u);
    EXPECT_EQ(table.at(0x10).parent, kAttributionNoParent);
    EXPECT_EQ(table.at(0x20).new_fingerprints, 3u);
    EXPECT_EQ(table.at(0x30).assume_failures, 1u);
    EXPECT_EQ(table.at(0x30).parent, 0x10u);
    EXPECT_EQ(snapshot.dropped_locations, 0u);
    EXPECT_EQ(snapshot.NewFingerprintsTotal(), 3u);
    EXPECT_FALSE(snapshot.empty());
    EXPECT_TRUE(AttributionSnapshot().empty());
}

TEST(Attribution, ChargeSolverLandsOnAmbientLocation)
{
    AttributionProfiler profiler("lua/JSON");
    EXPECT_EQ(CurrentAmbientLocation(), 0u);
    {
        ScopedLocation outer(0x42);
        EXPECT_EQ(CurrentAmbientLocation(), 0x42u);
        profiler.ChargeSolver(1'000'000);
        {
            ScopedLocation inner(0x43);
            profiler.ChargeSolver(2'000'000);
        }
        // The previous ambient location is restored on scope exit.
        EXPECT_EQ(CurrentAmbientLocation(), 0x42u);
        profiler.ChargeSolver(3'000'000);
    }
    EXPECT_EQ(CurrentAmbientLocation(), 0u);
    profiler.ChargeSolver(5'000'000);  // Root location outside any scope.

    const AttributionSnapshot snapshot = profiler.Snapshot();
    const std::map<uint64_t, AttributionRow>& table =
        snapshot.workloads.at("lua/JSON");
    EXPECT_EQ(table.at(0x42).solver_nanos, 4'000'000u);
    EXPECT_EQ(table.at(0x42).solver_queries, 2u);
    EXPECT_EQ(table.at(0x43).solver_nanos, 2'000'000u);
    EXPECT_EQ(table.at(0x0).solver_nanos, 5'000'000u);
    EXPECT_NEAR(snapshot.SolverSecondsTotal(), 0.011, 1e-9);
}

// Many threads charging many more distinct locations than one stripe
// holds: full stripes must spill into siblings (not the overflow
// aggregate), and the fold in Snapshot() must lose nothing.
TEST(Attribution, ConcurrentChargesAcrossStripesLoseNothing)
{
    AttributionProfiler profiler("py/simplejson");
    constexpr int kThreads = 8;
    constexpr uint64_t kLocations = 1'000;
    static_assert(kLocations > kAttributionCellsPerStripe,
                  "test must overflow a single stripe");
    static_assert(kLocations <
                      kMetricStripes * kAttributionCellsPerStripe,
                  "test must fit the profiler as a whole");
    constexpr uint64_t kRounds = 20;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&profiler] {
            for (uint64_t round = 0; round < kRounds; ++round) {
                for (uint64_t pc = 0; pc < kLocations; ++pc) {
                    profiler.Charge(pc, AttributionProfiler::kSteps);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    const AttributionSnapshot snapshot = profiler.Snapshot();
    EXPECT_EQ(snapshot.dropped_locations, 0u);
    const std::map<uint64_t, AttributionRow>& table =
        snapshot.workloads.at("py/simplejson");
    ASSERT_EQ(table.size(), kLocations);
    for (const auto& [pc, row] : table) {
        EXPECT_EQ(row.steps, kThreads * kRounds) << "hl_pc " << pc;
    }
}

// Exhausting every stripe folds further new locations into the overflow
// aggregate instead of losing the charges.
TEST(Attribution, FullTableFoldsIntoOverflowAggregate)
{
    AttributionProfiler profiler("w");
    const uint64_t capacity =
        kMetricStripes * kAttributionCellsPerStripe;
    for (uint64_t pc = 0; pc < capacity + 10; ++pc) {
        profiler.Charge(pc, AttributionProfiler::kSteps, 2);
    }
    const AttributionSnapshot snapshot = profiler.Snapshot();
    // dropped_locations counts redirected *charges* (delta-weighted).
    EXPECT_EQ(snapshot.dropped_locations, 20u);
    const std::map<uint64_t, AttributionRow>& table =
        snapshot.workloads.at("w");
    ASSERT_NE(table.find(kAttributionOverflowHlPc), table.end());
    EXPECT_EQ(table.at(kAttributionOverflowHlPc).steps, 20u);
    uint64_t total_steps = 0;
    for (const auto& [pc, row] : table) {
        total_steps += row.steps;
    }
    EXPECT_EQ(total_steps, (capacity + 10) * 2);
}

TEST(Attribution, HotPathAllocatesNothing)
{
    AttributionProfiler profiler("w");
    // Warm the cells the measured section will hit (cell claiming is
    // also allocation-free, but warming keeps the assert focused).
    for (uint64_t pc = 0; pc < 64; ++pc) {
        profiler.Charge(pc, AttributionProfiler::kSteps);
    }
    ScopedLocation location(7);

    const uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (uint64_t round = 0; round < 10'000; ++round) {
        profiler.Charge(round % 64, AttributionProfiler::kSteps);
        profiler.ChargeWithParent(round % 64, 3,
                                  AttributionProfiler::kForks);
        profiler.ChargeSolver(100);
    }
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

// --------------------------------------------------------------------------
// Merging: order independence and idempotent redelivery.

AttributionSnapshot
MakeSnapshot(const std::string& workload, uint64_t hl_pc, uint64_t steps,
             uint64_t parent = kAttributionNoParent)
{
    AttributionSnapshot snapshot;
    AttributionRow& row = snapshot.workloads[workload][hl_pc];
    row.steps = steps;
    row.new_fingerprints = steps / 2;
    row.parent = parent;
    return snapshot;
}

TEST(Attribution, MergeIsOrderIndependent)
{
    const AttributionSnapshot a = MakeSnapshot("w", 0x10, 4, 0x2);
    const AttributionSnapshot b = MakeSnapshot("w", 0x10, 6, 0x1);
    AttributionSnapshot c = MakeSnapshot("v", 0x99, 3);
    c.dropped_locations = 2;

    std::vector<const AttributionSnapshot*> order = {&a, &b, &c};
    std::sort(order.begin(), order.end());
    std::vector<AttributionSnapshot> merges;
    do {
        AttributionSnapshot merged;
        for (const AttributionSnapshot* part : order) {
            merged.MergeFrom(*part);
        }
        merges.push_back(std::move(merged));
    } while (std::next_permutation(order.begin(), order.end()));

    ASSERT_FALSE(merges.empty());
    for (const AttributionSnapshot& merged : merges) {
        EXPECT_TRUE(AttributionCountsEqual(merged, merges.front()));
        EXPECT_EQ(merged.workloads.at("w").at(0x10).steps, 10u);
        // Parent resolves to the smallest recorded parent — a pure
        // function of the operand set, independent of arrival order.
        EXPECT_EQ(merged.workloads.at("w").at(0x10).parent, 0x1u);
        EXPECT_EQ(merged.workloads.at("v").at(0x99).steps, 3u);
        EXPECT_EQ(merged.dropped_locations, 2u);
    }
}

// The coordinator's gossip lifecycle: per-shard tables replace by
// latest (gossip snapshots are cumulative), and the cluster view folds
// the latest per shard. Redelivering any frame must not change the
// fold.
TEST(Attribution, IdempotentRedeliveryUnderReplaceByLatest)
{
    const AttributionSnapshot shard0_t1 = MakeSnapshot("w", 0x10, 5);
    const AttributionSnapshot shard0_t2 = MakeSnapshot("w", 0x10, 9);
    const AttributionSnapshot shard1_t1 = MakeSnapshot("w", 0x20, 4);

    const auto fold = [](const std::map<int, AttributionSnapshot>& latest) {
        AttributionSnapshot cluster;
        for (const auto& [shard, snapshot] : latest) {
            cluster.MergeFrom(snapshot);
        }
        return cluster;
    };

    std::map<int, AttributionSnapshot> latest;
    latest[0] = shard0_t1;
    latest[0] = shard0_t2;  // Newer cumulative frame replaces.
    latest[1] = shard1_t1;
    const AttributionSnapshot once = fold(latest);

    // Redeliver every frame, including a stale one arriving late:
    // replace-by-latest makes the duplicate a no-op and the stale frame
    // at worst a temporary regression that the next delivery repairs.
    latest[1] = shard1_t1;
    latest[0] = shard0_t2;
    const AttributionSnapshot twice = fold(latest);

    EXPECT_TRUE(AttributionCountsEqual(once, twice));
    EXPECT_EQ(twice.workloads.at("w").at(0x10).steps, 9u);
    EXPECT_EQ(twice.workloads.at("w").at(0x20).steps, 4u);
}

// --------------------------------------------------------------------------
// Serialization.

TEST(Attribution, JsonRoundTripPreservesEveryColumn)
{
    AttributionProfiler profiler("py/argparse");
    profiler.Charge(0x10, AttributionProfiler::kSteps, 12);
    profiler.Charge(0x10, AttributionProfiler::kSolverQueries, 2);
    profiler.Charge(0x10, AttributionProfiler::kSolverNanos, 5'000'000);
    profiler.ChargeWithParent(0x20, 0x10,
                              AttributionProfiler::kNewFingerprints);
    AttributionSnapshot snapshot = profiler.Snapshot();
    snapshot.dropped_locations = 3;

    JsonWriter json;
    WriteAttributionSnapshot(json, snapshot);
    const std::string doc = json.Take();
    ASSERT_TRUE(support::JsonValid(doc)) << doc;

    JsonValue value;
    ASSERT_TRUE(ParseJson(doc, &value));
    AttributionSnapshot decoded;
    std::string error;
    ASSERT_TRUE(DecodeAttributionSnapshot(value, &decoded, &error))
        << error;
    EXPECT_TRUE(AttributionCountsEqual(snapshot, decoded));
    EXPECT_EQ(decoded.workloads.at("py/argparse").at(0x10).solver_nanos,
              5'000'000u);
    EXPECT_EQ(decoded.workloads.at("py/argparse").at(0x20).parent, 0x10u);
    EXPECT_EQ(decoded.dropped_locations, 3u);
}

TEST(Attribution, DecodeIgnoresUnknownKeysAndRejectsMalformedTables)
{
    // Unknown keys at every level are skipped; every column is present.
    const std::string doc =
        "{\"future_section\":[1,2],\"dropped_locations\":1,"
        "\"workloads\":[{\"workload\":\"w\",\"future_flag\":true,"
        "\"locations\":[{\"hl_pc\":\"0x10\",\"solver_nanos\":0,"
        "\"solver_queries\":0,\"steps\":4,\"forks\":0,"
        "\"assume_failures\":0,\"new_fingerprints\":0,\"runs\":1,"
        "\"future_column\":9}]}]}";
    JsonValue value;
    ASSERT_TRUE(ParseJson(doc, &value));
    AttributionSnapshot decoded;
    std::string error;
    ASSERT_TRUE(DecodeAttributionSnapshot(value, &decoded, &error))
        << error;
    EXPECT_EQ(decoded.workloads.at("w").at(0x10).steps, 4u);
    EXPECT_EQ(decoded.dropped_locations, 1u);

    // Missing or mistyped required fields fail loudly instead of
    // half-decoding: a column that reads as "x", or is absent, must not
    // become 0.
    for (const char* bad :
         {"{\"dropped_locations\":0}",
          "{\"workloads\":[{\"locations\":[]}]}",
          "{\"workloads\":[{\"workload\":\"w\","
          "\"locations\":[{\"steps\":1}]}]}",
          "{\"dropped_locations\":0,\"workloads\":[{\"workload\":\"w\","
          "\"locations\":[{\"hl_pc\":\"0x10\",\"solver_nanos\":0,"
          "\"solver_queries\":0,\"steps\":\"x\",\"forks\":0,"
          "\"assume_failures\":0,\"new_fingerprints\":0,\"runs\":1}]}]}",
          "{\"dropped_locations\":0,\"workloads\":[{\"workload\":\"w\","
          "\"locations\":[{\"hl_pc\":\"0x10\",\"solver_nanos\":0,"
          "\"solver_queries\":0,\"forks\":0,\"assume_failures\":0,"
          "\"new_fingerprints\":0,\"runs\":1}]}]}"}) {
        JsonValue bad_value;
        ASSERT_TRUE(ParseJson(bad, &bad_value)) << bad;
        AttributionSnapshot sink;
        EXPECT_FALSE(DecodeAttributionSnapshot(bad_value, &sink, &error))
            << bad;
    }
}

// --------------------------------------------------------------------------
// Rendering: folded stacks and the hot-locations panel.

TEST(Attribution, FoldedStacksFollowParentChains)
{
    AttributionSnapshot snapshot;
    std::map<uint64_t, AttributionRow>& table = snapshot.workloads["w"];
    table[0x1].steps = 10;  // Root (no parent).
    table[0x2].steps = 4;
    table[0x2].parent = 0x1;
    table[0x3].steps = 0;  // Pure-solver location: value falls back to
    table[0x3].solver_queries = 6;  // TotalCharges().
    table[0x3].parent = 0x2;

    const std::string stacks = RenderAttributionFoldedStacks(snapshot);
    EXPECT_NE(stacks.find("w;0x1 10\n"), std::string::npos) << stacks;
    EXPECT_NE(stacks.find("w;0x1;0x2 4\n"), std::string::npos) << stacks;
    EXPECT_NE(stacks.find("w;0x1;0x2;0x3 6\n"), std::string::npos)
        << stacks;

    // Parent cycles terminate instead of looping.
    AttributionSnapshot cyclic;
    cyclic.workloads["c"][0xa].steps = 1;
    cyclic.workloads["c"][0xa].parent = 0xb;
    cyclic.workloads["c"][0xb].steps = 1;
    cyclic.workloads["c"][0xb].parent = 0xa;
    const std::string cycle_stacks =
        RenderAttributionFoldedStacks(cyclic);
    EXPECT_NE(cycle_stacks.find("0xa 1\n"), std::string::npos)
        << cycle_stacks;
    EXPECT_NE(cycle_stacks.find("0xb 1\n"), std::string::npos)
        << cycle_stacks;
}

TEST(Attribution, HotLocationsRanksBySolverSecondsAndYield)
{
    AttributionSnapshot snapshot;
    std::map<uint64_t, AttributionRow>& table = snapshot.workloads["w"];
    table[0x1].solver_nanos = 9'000'000'000;  // Hottest by cost.
    table[0x1].solver_queries = 9;
    table[0x2].solver_nanos = 1'000'000'000;
    table[0x2].solver_queries = 1;
    table[0x2].new_fingerprints = 50;  // Hottest by yield.

    const std::string panel = RenderHotLocations(snapshot, 2);
    EXPECT_NE(panel.find("0x1"), std::string::npos) << panel;
    EXPECT_NE(panel.find("0x2"), std::string::npos) << panel;
    // Cost ranking lists 0x1 before 0x2.
    EXPECT_LT(panel.find("0x1"), panel.find("0x2")) << panel;

    EXPECT_EQ(RenderHotLocations(AttributionSnapshot(), 5), "");
}

// --------------------------------------------------------------------------
// Frontier introspection.

TEST(Frontier, DepthBucketsAreLogarithmicWithSaturatingTail)
{
    EXPECT_EQ(FrontierSnapshot::DepthBucket(0), 0u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(1), 1u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(2), 1u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(3), 2u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(6), 2u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(7), 3u);
    EXPECT_EQ(FrontierSnapshot::DepthBucket(UINT32_MAX),
              kFrontierDepthBuckets - 1);
}

TEST(Frontier, InspectorKeepsExactCountsAndBoundedRing)
{
    FrontierInspector inspector;
    for (uint64_t i = 0; i < kFrontierPickRing + 10; ++i) {
        inspector.RecordPick("fifo", i, static_cast<uint32_t>(i));
    }
    inspector.RecordPick("coverage", 0x999, 3);

    const std::map<std::string, uint64_t> counts = inspector.PickCounts();
    EXPECT_EQ(counts.at("fifo"), kFrontierPickRing + 10);
    EXPECT_EQ(counts.at("coverage"), 1u);

    const std::vector<FrontierInspector::Pick> picks =
        inspector.RecentPicks();
    ASSERT_EQ(picks.size(), kFrontierPickRing);
    // Oldest first, and the ring holds exactly the most recent picks.
    EXPECT_EQ(picks.front().seq + kFrontierPickRing - 1,
              picks.back().seq);
    EXPECT_STREQ(picks.back().strategy, "coverage");
    EXPECT_EQ(picks.back().hl_pc, 0x999u);
}

// --------------------------------------------------------------------------
// End to end: a 2-shard loopback batch's cluster table equals the
// single-shard table on every deterministic column (the wall-time
// column is excluded by AttributionCountsEqual).

TEST(Attribution, TwoShardClusterTableMatchesSingleShard)
{
    std::vector<service::JobSpec> jobs;
    int copy = 0;
    for (const char* id :
         {"py/argparse", "lua/cliargs", "py/simplejson", "lua/haml"}) {
        service::JobSpec spec;
        spec.workload = id;
        spec.label = std::string(id) + "#" + std::to_string(copy);
        spec.seed = static_cast<uint64_t>(++copy);
        spec.options.max_runs = 6;
        spec.options.max_seconds = 1e9;
        spec.options.collect_timeline = false;
        jobs.push_back(std::move(spec));
    }
    shard::ShardCoordinator::Options options;
    options.service.seed = 2014;
    options.service.num_workers = 1;

    shard::ShardCoordinator single(options);
    std::string error;
    ASSERT_TRUE(shard::RunLoopbackShards(&single, jobs, 1, &error))
        << error;
    shard::ShardCoordinator sharded(options);
    ASSERT_TRUE(shard::RunLoopbackShards(&sharded, jobs, 2, &error))
        << error;

    const AttributionSnapshot one = single.ClusterAttribution();
    const AttributionSnapshot two = sharded.ClusterAttribution();
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one.dropped_locations, 0u);
    EXPECT_TRUE(AttributionCountsEqual(one, two));
    EXPECT_EQ(one.workloads.size(), 4u);
    EXPECT_GT(one.NewFingerprintsTotal(), 0u);
    EXPECT_GT(two.SolverSecondsTotal(), 0.0);

    // The report surfaces the same cluster table under
    // telemetry.attribution.
    const std::string report = sharded.RenderMergedReport();
    ASSERT_TRUE(support::JsonValid(report));
    JsonValue parsed;
    ASSERT_TRUE(ParseJson(report, &parsed));
    const JsonValue* telemetry = parsed.Find("telemetry");
    ASSERT_NE(telemetry, nullptr);
    const JsonValue* attribution = telemetry->Find("attribution");
    ASSERT_NE(attribution, nullptr);
    const JsonValue* cluster = attribution->Find("cluster");
    ASSERT_NE(cluster, nullptr);
    AttributionSnapshot reported;
    ASSERT_TRUE(DecodeAttributionSnapshot(*cluster, &reported, &error))
        << error;
    EXPECT_TRUE(AttributionCountsEqual(reported, two));
    const JsonValue* shards = attribution->Find("shards");
    ASSERT_NE(shards, nullptr);
    EXPECT_EQ(shards->items.size(), 2u);
}

}  // namespace
}  // namespace chef::obs
