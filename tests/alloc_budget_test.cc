/// \file
/// Allocation budget of the per-step path.
///
/// A run's cost is dominated by the interpreter's steps on the low-level
/// engine, and a heap allocation per step is one of its largest costs.
/// This binary counts operator new calls and the bytes they request
/// (counting_allocator.h), explores one minipy and one minilua package to
/// exhaustion, then checks both per interpreter step against fixed
/// budgets.
///
/// The call budgets sit a few percent above the counts measured when
/// interned constants, lazily allocated guest hash buckets,
/// allocation-free HLPC interning and lazily made minipy builtins landed;
/// the tree before those changes fails both. The byte budgets sit about
/// 3% above the counts measured with 40-byte expression nodes and 4-byte
/// HL tree nodes; a tree with 56-byte expression nodes and 12-byte HL
/// tree nodes fails both. A third test bounds the peak live heap of the
/// lua/JSON hang session, the peak of the interp-bound benchmark's
/// memory. The counts are deterministic: one thread, a fixed seed.
/// Sanitizer builds interpose their own allocator, so the budget tests
/// skip themselves there.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "chef/engine.h"
#include "counting_allocator.h"
#include "interp/build_options.h"
#include "workloads/registry.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CHEF_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CHEF_ALLOC_SANITIZED 1
#endif
#endif

namespace chef {
namespace {

struct Budget {
    double allocations_per_step;
    double bytes_per_step;
};

/// Allocations per interpreter step allowed in each session, about 4%
/// above the measured 1.031 (py/unicodecsv: 512k allocations over 497k
/// steps) and 1.015 (lua/haml: 327k over 322k). Before the allocation
/// changes these read 2.079 and 1.713; before MiniLua's slot frames,
/// lua/haml read 1.399 (451k).
///
/// Bytes requested per step, about 3% above the measured 148.32
/// (py/unicodecsv: 73.7 MB over 497k steps) and 97.02 (lua/haml: 31.3 MB
/// over 322k). With 56-byte expression nodes and 12-byte HL tree nodes
/// these read 154.07 and 101.05; with 24-byte HL tree nodes and a per-run
/// HLPC trace before that, 155.98 and 102.44; with shared_ptr expression
/// nodes (128 bytes each, name string included) before that, 189.51 and
/// 126.34.
constexpr Budget kPyBudget = {1.07, 153.0};
constexpr Budget kLuaBudget = {1.05, 100.0};

constexpr uint64_t kLuaJsonPeakLiveBytes = 16'300'000;

struct SessionCount {
    uint64_t allocations = 0;
    uint64_t bytes = 0;
    uint64_t steps = 0;
    uint64_t ll_paths = 0;
};

/// Explores \p workload to exhaustion and counts the heap allocations made
/// inside Explore (compilation and engine set-up excluded).
SessionCount
ExploreAndCount(const std::string& workload)
{
    const workloads::WorkloadInfo* info = workloads::FindWorkload(workload);
    EXPECT_NE(info, nullptr) << workload;
    if (info == nullptr) {
        return {};
    }
    const Engine::RunFn run_fn =
        info->make_run(interp::InterpBuildOptions::FullyOptimized());
    Engine::Options options;
    options.seed = 1;
    options.max_runs = 1'000'000'000;
    options.max_seconds = 1e9;
    Engine engine(options);

    SessionCount count;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const uint64_t bytes_before =
        g_allocated_bytes.load(std::memory_order_relaxed);
    const std::vector<TestCase> tests = engine.Explore(run_fn);
    count.allocations =
        g_allocations.load(std::memory_order_relaxed) - before;
    count.bytes =
        g_allocated_bytes.load(std::memory_order_relaxed) - bytes_before;
    for (const TestCase& test : tests) {
        count.steps += test.ll_steps;
    }
    count.ll_paths = engine.stats().ll_paths;
    EXPECT_FALSE(engine.stats().stopped) << workload;
    EXPECT_LT(count.ll_paths, options.max_runs) << workload;
    return count;
}

void
ExpectWithinBudget(const std::string& workload, const Budget& budget)
{
#ifdef CHEF_ALLOC_SANITIZED
    (void)workload;
    (void)budget;
    GTEST_SKIP() << "sanitizer allocators interpose operator new";
#else
    const SessionCount count = ExploreAndCount(workload);
    ASSERT_GT(count.steps, 0u) << workload;
    const double steps = static_cast<double>(count.steps);
    const double per_step = static_cast<double>(count.allocations) / steps;
    const double bytes_per_step = static_cast<double>(count.bytes) / steps;
    std::printf("%s: %llu allocations of %llu bytes over %llu steps "
                "(%llu runs), %.4f per step (budget %.4f), %.2f bytes per "
                "step (budget %.2f)\n",
                workload.c_str(),
                static_cast<unsigned long long>(count.allocations),
                static_cast<unsigned long long>(count.bytes),
                static_cast<unsigned long long>(count.steps),
                static_cast<unsigned long long>(count.ll_paths), per_step,
                budget.allocations_per_step, bytes_per_step,
                budget.bytes_per_step);
    EXPECT_LE(per_step, budget.allocations_per_step) << workload;
    EXPECT_LE(bytes_per_step, budget.bytes_per_step) << workload;
#endif
}

TEST(AllocBudget, CountingAllocatorSeesAllocations)
{
#ifdef CHEF_ALLOC_SANITIZED
    GTEST_SKIP() << "sanitizer allocators interpose operator new";
#else
    // Stored through a volatile pointer so the pair is not elided.
    static std::string* volatile sink = nullptr;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    sink = new std::string(100, 'x');
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    delete sink;
    EXPECT_GE(after - before, 2u);  // The string object and its buffer.
#endif
}

/// Peak live heap of the lua/JSON Table-3 hang session, run as the
/// interp-bound perfbench workload runs it (breadth-first, 150 runs),
/// measured above the heap held before Explore. That session sets the
/// workload's peak RSS. The budget sits about 3% above the measured
/// 15.84 MB; with 56-byte expression nodes and 12-byte HL tree nodes it
/// read 25.23 MB.
TEST(AllocBudget, LuaJsonHangSessionPeakStaysWithinBudget)
{
#ifdef CHEF_ALLOC_SANITIZED
    GTEST_SKIP() << "sanitizer allocators interpose operator new";
#else
    const workloads::WorkloadInfo* info = workloads::FindWorkload("lua/JSON");
    ASSERT_NE(info, nullptr);
    const Engine::RunFn run_fn =
        info->make_run(interp::InterpBuildOptions::FullyOptimized());
    Engine::Options options;
    options.strategy = StrategyKind::kBfs;
    options.seed = 1;
    options.max_runs = 150;
    options.max_seconds = 1e9;
    Engine engine(options);

    const uint64_t live_before = g_live_bytes.load(std::memory_order_relaxed);
    ResetPeakLiveBytes();
    const std::vector<TestCase> tests = engine.Explore(run_fn);
    const uint64_t peak =
        g_peak_live_bytes.load(std::memory_order_relaxed) - live_before;
    EXPECT_EQ(engine.stats().ll_paths, options.max_runs);
    EXPECT_GT(engine.stats().hangs, 0u);
    std::printf("lua/JSON: peak live heap %llu bytes above the %llu before "
                "Explore (budget %llu), %llu runs, %llu hangs, %zu HL tree "
                "nodes\n",
                static_cast<unsigned long long>(peak),
                static_cast<unsigned long long>(live_before),
                static_cast<unsigned long long>(kLuaJsonPeakLiveBytes),
                static_cast<unsigned long long>(engine.stats().ll_paths),
                static_cast<unsigned long long>(engine.stats().hangs),
                engine.tracker().tree().num_nodes());
    EXPECT_LE(peak, kLuaJsonPeakLiveBytes);
#endif
}

TEST(AllocBudget, PyUnicodecsvSessionStaysWithinBudget)
{
    ExpectWithinBudget("py/unicodecsv", kPyBudget);
}

TEST(AllocBudget, LuaHamlSessionStaysWithinBudget)
{
    ExpectWithinBudget("lua/haml", kLuaBudget);
}

}  // namespace
}  // namespace chef
