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
/// The call and byte budgets sit a few percent above the counts measured
/// once expression nodes, minipy objects, path links, Lua frames and Lua
/// string blocks came from the node pool (support/node_pool.h), which
/// takes a 16 KiB chunk from operator new where malloc served each node;
/// a tree without the pool fails all four. A third test bounds the peak
/// live heap of the lua/JSON hang session, the peak of the interp-bound
/// benchmark's memory. The counts are deterministic: one thread, a fixed
/// seed. The pool keeps the slots a test frees for the tests after it,
/// so a later test counts fewer chunks than it would alone; the budgets
/// hold for each test run alone too. Sanitizer builds interpose their
/// own allocator, so the budget tests skip themselves there.

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

/// Allocations per interpreter step allowed in each session, about 3%
/// above the 0.4265 (py/unicodecsv: 212k allocations over 497k steps)
/// and 0.6570 (lua/haml: 212k over 322k) measured with each test run
/// alone. Before the node pool these read 1.031 and 1.015 (budgets 1.07
/// and 1.05); before interned constants, lazily allocated guest hash
/// buckets, allocation-free HLPC interning and lazily made minipy
/// builtins, 2.079 and 1.713.
///
/// Bytes requested per step, about 3% above the measured 22.40
/// (py/unicodecsv: 11.1 MB over 497k steps) and 82.98 (lua/haml: 26.8 MB
/// over 322k). Before the node pool these read 148.32 and 97.02 (budgets
/// 153 and 100); with 56-byte expression nodes and 12-byte HL tree nodes
/// before that, 154.07 and 101.05; with shared_ptr expression nodes
/// (128 bytes each, name string included), 189.51 and 126.34.
constexpr Budget kPyBudget = {0.44, 23.1};
constexpr Budget kLuaBudget = {0.68, 85.5};

/// The measured peak is 15.90 MB; without the node pool it read 15.84 MB
/// (the counter reads malloc's usable size, which leaves out the 8-byte
/// chunk header the pool saves per node, and the pool holds each size
/// class's high-water mark where malloc reuses a freed block for any
/// size). With 56-byte expression nodes and 12-byte HL tree nodes it
/// read 25.23 MB.
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

/// Peak live heap of the lua/JSON Table-3 hang session, run as the
/// interp-bound perfbench workload runs it (breadth-first, 150 runs),
/// measured above the heap held before Explore. That session sets the
/// workload's peak RSS. This test comes first in the file: the node
/// pool's chunks count as live from the moment they are taken, so slots
/// an earlier test left in the pool would serve this session without
/// reaching the counter and hide part of its heap.
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
