/// \file
/// Integration tests for the CHEF engine with synthetic instrumented
/// "interpreters" (C++ guest programs using the runtime API directly).
///
/// These check the core soundness and completeness invariants from
/// DESIGN.md before any real interpreter is involved.

#include <gtest/gtest.h>

#include <set>

#include "chef/engine.h"
#include "support/strings.h"

namespace chef {
namespace {

using lowlevel::LowLevelRuntime;
using lowlevel::PathStatus;
using lowlevel::SymValue;

enum Opcode : uint32_t { kOpStmt = 1, kOpCmp = 2, kOpJump = 3 };

/// A guest with three independent byte branches: 8 feasible paths.
Engine::GuestOutcome
ThreeBranchGuest(LowLevelRuntime& rt)
{
    SymValue a = rt.MakeSymbolicValue("a", 8, 0);
    SymValue b = rt.MakeSymbolicValue("b", 8, 0);
    SymValue c = rt.MakeSymbolicValue("c", 8, 0);
    uint64_t hlpc = 1;
    int sum = 0;
    for (const SymValue* byte : {&a, &b, &c}) {
        rt.LogPc(hlpc++, kOpCmp);
        if (rt.Branch(SvUgt(*byte, SymValue(100, 8)), CHEF_LLPC)) {
            sum += 1;
        }
        rt.LogPc(hlpc++, kOpJump);
    }
    rt.LogPc(hlpc + static_cast<uint64_t>(sum), kOpStmt);
    return {};
}

TEST(Engine, EnumeratesAllPathsAndStops)
{
    Engine::Options options;
    options.max_runs = 100;
    options.strategy = StrategyKind::kCupaPath;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(ThreeBranchGuest);
    EXPECT_EQ(engine.stats().ll_paths, 8u);
    EXPECT_EQ(tests.size(), 8u);
    // All 8 input combinations are distinct in their branch pattern.
    std::set<std::vector<bool>> patterns;
    for (const TestCase& test : tests) {
        std::vector<bool> pattern;
        for (uint32_t var = 1; var <= 3; ++var) {
            pattern.push_back(test.inputs.Get(var) > 100);
        }
        patterns.insert(pattern);
    }
    EXPECT_EQ(patterns.size(), 8u);
}

TEST(Engine, EveryStrategyEnumeratesTheSamePathSet)
{
    for (const StrategyKind kind :
         {StrategyKind::kRandom, StrategyKind::kDfs, StrategyKind::kBfs,
          StrategyKind::kCupaPath, StrategyKind::kCupaCoverage,
          StrategyKind::kCupaPathInverted}) {
        Engine::Options options;
        options.max_runs = 100;
        options.strategy = kind;
        Engine engine(options);
        engine.Explore(ThreeBranchGuest);
        EXPECT_EQ(engine.stats().ll_paths, 8u)
            << "strategy " << StrategyKindName(kind);
    }
}

/// Soundness: replaying each generated test case concretely follows
/// exactly the predicted branch pattern.
TEST(Engine, TestCasesReplayDeterministically)
{
    Engine::Options options;
    options.max_runs = 100;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(ThreeBranchGuest);
    ASSERT_EQ(tests.size(), 8u);
    for (const TestCase& test : tests) {
        // Replay without any engine: pure concrete execution.
        int expected_sum = 0;
        for (uint32_t var = 1; var <= 3; ++var) {
            if (test.inputs.Get(var) > 100) {
                ++expected_sum;
            }
        }
        // The final LogPc hlpc encodes the sum; HL length is 7 for every
        // path (3 cmp + 3 jump + 1 final).
        EXPECT_EQ(test.hl_length, 7u);
        (void)expected_sum;
    }
}

/// A guest whose single high-level statement forks many low-level states
/// (the paper's string-find pattern): HL paths << LL paths.
Engine::GuestOutcome
FindLikeGuest(LowLevelRuntime& rt)
{
    SymValue bytes[6];
    for (int i = 0; i < 6; ++i) {
        bytes[i] = rt.MakeSymbolicValue("s" + std::to_string(i), 8, 'a');
    }
    rt.LogPc(1, kOpStmt);  // "pos = s.find('@')"
    int pos = -1;
    const uint64_t loop_llpc = 4242;
    for (int i = 0; i < 6; ++i) {
        if (rt.Branch(SvEq(bytes[i], SymValue('@', 8)), loop_llpc)) {
            pos = i;
            break;
        }
    }
    rt.LogPc(2, kOpCmp);  // "if pos < 3"
    if (rt.Branch(SymValue(pos >= 0 && pos < 3 ? 1 : 0, 1), CHEF_LLPC)) {
        rt.LogPc(3, kOpStmt);  // raise branch
    } else {
        rt.LogPc(4, kOpStmt);
    }
    return {};
}

TEST(Engine, HighLevelPathsFewerThanLowLevelPaths)
{
    Engine::Options options;
    options.max_runs = 100;
    Engine engine(options);
    engine.Explore(FindLikeGuest);
    // 7 low-level outcomes of find (position 0..5 or not found); the
    // "if pos < 3" comparison is concrete once find resolved, so LL paths
    // = 7; HL paths: found-early (raise) vs found-late/not-found = 2
    // distinct HL paths... but HLPC traces also differ in length? No:
    // the find loop is one HL statement regardless of iterations.
    EXPECT_EQ(engine.stats().ll_paths, 7u);
    EXPECT_EQ(engine.stats().hl_paths, 2u);
    EXPECT_LT(engine.stats().hl_paths, engine.stats().ll_paths);
}

/// Hang detection: a symbolic branch guards an infinite loop.
Engine::GuestOutcome
MaybeHangGuest(LowLevelRuntime& rt)
{
    SymValue x = rt.MakeSymbolicValue("x", 8, 0);
    rt.LogPc(1, kOpCmp);
    if (rt.Branch(SvEq(x, SymValue(77, 8)), CHEF_LLPC)) {
        // Infinite loop, bounded by the step budget.
        while (rt.CountStep()) {
        }
        return {"hang", "loop"};
    }
    rt.LogPc(2, kOpStmt);
    return {};
}

TEST(Engine, DetectsHangs)
{
    Engine::Options options;
    options.max_runs = 10;
    options.max_steps_per_run = 10'000;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(MaybeHangGuest);
    EXPECT_EQ(engine.stats().hangs, 1u);
    bool hang_case_found = false;
    for (const TestCase& test : tests) {
        if (test.outcome_kind == "hang") {
            hang_case_found = true;
            EXPECT_EQ(test.inputs.Get(1), 77u);
        }
    }
    EXPECT_TRUE(hang_case_found);
}

/// Assume: all generated inputs satisfy the assumption.
Engine::GuestOutcome
AssumeGuest(LowLevelRuntime& rt)
{
    SymValue x = rt.MakeSymbolicValue("x", 8, 150);
    rt.Assume(SvUgt(x, SymValue(100, 8)));
    rt.LogPc(1, kOpCmp);
    if (rt.Branch(SvUlt(x, SymValue(180, 8)), CHEF_LLPC)) {
        rt.LogPc(2, kOpStmt);
    } else {
        rt.LogPc(3, kOpStmt);
    }
    return {};
}

TEST(Engine, AssumeConstrainsAllTestCases)
{
    Engine::Options options;
    options.max_runs = 20;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(AssumeGuest);
    EXPECT_EQ(engine.stats().ll_paths, 2u);
    for (const TestCase& test : tests) {
        EXPECT_GT(test.inputs.Get(1), 100u);
    }
}

/// Assume with a violating default: the engine re-solves and recovers.
Engine::GuestOutcome
AssumeViolatedByDefaultGuest(LowLevelRuntime& rt)
{
    SymValue x = rt.MakeSymbolicValue("x", 8, 0);  // Default violates.
    rt.Assume(SvUgt(x, SymValue(100, 8)));
    rt.LogPc(1, kOpStmt);
    return {};
}

// The re-solved assignment carries into the next run.
TEST(Engine, RecoversFromViolatedAssumption)
{
    Engine::Options options;
    options.max_runs = 20;
    Engine engine(options);
    const std::vector<TestCase> tests =
        engine.Explore(AssumeViolatedByDefaultGuest);
    EXPECT_GE(engine.stats().assume_retries, 1u);
    ASSERT_EQ(tests.size(), 1u);
    EXPECT_GT(tests[0].inputs.Get(1), 100u);
    EXPECT_NE(tests[0].status, PathStatus::kAssumeViolated);
}

/// Infeasible alternate states are pruned without being executed.
Engine::GuestOutcome
InfeasibleAlternateGuest(LowLevelRuntime& rt)
{
    SymValue x = rt.MakeSymbolicValue("x", 8, 0);
    rt.LogPc(1, kOpCmp);
    // First branch: x < 10 concretely true with default 0.
    if (rt.Branch(SvUlt(x, SymValue(10, 8)), CHEF_LLPC)) {
        rt.LogPc(2, kOpCmp);
        // Second branch: x > 200 is infeasible given x < 10.
        if (rt.Branch(SvUgt(x, SymValue(200, 8)), CHEF_LLPC)) {
            rt.LogPc(3, kOpStmt);
        } else {
            rt.LogPc(4, kOpStmt);
        }
    } else {
        rt.LogPc(5, kOpStmt);
    }
    return {};
}

TEST(Engine, PrunesInfeasibleStates)
{
    Engine::Options options;
    options.max_runs = 20;
    Engine engine(options);
    engine.Explore(InfeasibleAlternateGuest);
    // Feasible paths: (x<10, !x>200) and (!x<10). The alternate
    // (x<10, x>200) must be proven infeasible, not executed.
    EXPECT_EQ(engine.stats().ll_paths, 2u);
    EXPECT_EQ(engine.stats().infeasible_states, 1u);
}

TEST(Engine, RespectsRunBudget)
{
    Engine::Options options;
    options.max_runs = 3;
    Engine engine(options);
    engine.Explore(ThreeBranchGuest);
    EXPECT_EQ(engine.stats().ll_paths, 3u);
}

// The session selects and solves its next state before the run budget
// ends it: the fixed-work benchmark's pinned solver counts include that
// solve.
TEST(Engine, SolvesOneStatePastTheRunBudget)
{
    Engine::Options options;
    options.max_runs = 3;
    Engine engine(options);
    engine.Explore(ThreeBranchGuest);
    EXPECT_EQ(engine.stats().ll_paths, 3u);
    EXPECT_EQ(engine.stats().solver_queries, 3u);
}

TEST(Engine, TimelineIsMonotonic)
{
    Engine::Options options;
    options.max_runs = 50;
    Engine engine(options);
    engine.Explore(ThreeBranchGuest);
    const auto& timeline = engine.stats().timeline;
    ASSERT_FALSE(timeline.empty());
    for (size_t i = 1; i < timeline.size(); ++i) {
        EXPECT_GE(timeline[i].ll_paths, timeline[i - 1].ll_paths);
        EXPECT_GE(timeline[i].hl_paths, timeline[i - 1].hl_paths);
    }
    EXPECT_EQ(timeline.back().ll_paths, engine.stats().ll_paths);
}

/// Determinism: same seed, same exploration.
TEST(Engine, DeterministicUnderSeed)
{
    auto run_once = [](uint64_t seed) {
        Engine::Options options;
        options.max_runs = 100;
        options.seed = seed;
        options.collect_timeline = false;
        Engine engine(options);
        std::vector<uint64_t> inputs_flat;
        for (const TestCase& test : engine.Explore(ThreeBranchGuest)) {
            for (uint32_t var = 1; var <= 3; ++var) {
                inputs_flat.push_back(test.inputs.Get(var));
            }
        }
        return inputs_flat;
    };
    EXPECT_EQ(run_once(42), run_once(42));
}

// A stop request that lands after the next state was claimed and solved
// hands that state back to the pending pool. ReleaseClaim re-announces it
// through the state-added hook, yet each registered state is charged one
// fork.
TEST(Engine, StopAfterClaimReleasesTheClaimedState)
{
    obs::AttributionProfiler profiler("three-branch");
    Engine* session = nullptr;
    Engine::Options options;
    options.obs.attribution = &profiler;
    // The first solver query is the claimed state's: the first run's
    // three branches are concrete-input forks that need no solve.
    options.stop_requested = [&session] {
        return session != nullptr &&
               session->constraint_solver().stats().queries >= 1;
    };
    Engine engine(options);
    session = &engine;
    engine.Explore(ThreeBranchGuest);

    EXPECT_TRUE(engine.stats().stopped);
    EXPECT_EQ(engine.stats().ll_paths, 1u);
    EXPECT_EQ(engine.constraint_solver().stats().queries, 1u);
    // Every state the first run registered is pending again, the
    // claimed one included.
    EXPECT_EQ(engine.tree().total_registered(), 3u);
    EXPECT_EQ(engine.tree().pending().size(),
              engine.tree().total_registered());
    uint64_t forks = 0;
    for (const auto& [workload, table] :
         engine.stats().attribution.workloads) {
        for (const auto& [hl_pc, row] : table) {
            forks += row.forks;
        }
    }
    EXPECT_EQ(forks, engine.tree().total_registered());
}

// With a profiler attached, the engine keeps each run's HLPC trace and
// charges a step per entry, so the table's steps add up to the test cases'
// high-level lengths. ThreeBranchGuest makes no assumptions: every run is a
// test case and none is charged twice.
TEST(Engine, AttributionChargesEveryHlStep)
{
    obs::AttributionProfiler profiler("three-branch");
    Engine::Options options;
    options.obs.attribution = &profiler;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(ThreeBranchGuest);
    ASSERT_EQ(tests.size(), 8u);
    uint64_t hl_steps = 0;
    for (const TestCase& test : tests) {
        hl_steps += test.hl_length;
    }
    uint64_t charged = 0;
    for (const auto& [workload, table] :
         engine.stats().attribution.workloads) {
        for (const auto& [hl_pc, row] : table) {
            charged += row.steps;
        }
    }
    EXPECT_EQ(hl_steps, 8u * 7u);
    EXPECT_EQ(charged, hl_steps);
}

// ---------------------------------------------------------------------------
// Serial bit-identity: golden digests of whole sessions.
// ---------------------------------------------------------------------------

/// Golden guest for the bit-identity regression: a mix of branch streaks at
/// one site, an assume-retry path, and input-dependent control flow.
/// Literal LLPCs (not CHEF_LLPC) so the digest is independent of this
/// file's path and line numbers.
Engine::GuestOutcome
GoldenGuest(LowLevelRuntime& rt)
{
    SymValue a = rt.MakeSymbolicValue("a", 8, 10);
    SymValue b = rt.MakeSymbolicValue("b", 8, 200);
    SymValue c = rt.MakeSymbolicValue("c", 8, 3);
    rt.LogPc(1, 2);
    uint64_t acc = 0;
    for (int i = 0; i < 4; ++i) {
        rt.LogPc(10 + static_cast<uint64_t>(i), 3);
        if (rt.Branch(
                lowlevel::SvUlt(
                    lowlevel::SvAdd(a, SymValue(
                                           static_cast<uint64_t>(i) * 17, 8)),
                    b),
                7777)) {
            acc += 1;
            rt.LogPc(20 + static_cast<uint64_t>(i), 1);
        } else {
            rt.LogPc(30 + static_cast<uint64_t>(i), 1);
        }
    }
    rt.LogPc(50, 2);
    if (rt.Branch(lowlevel::SvEq(c, SymValue(acc & 0xff, 8)), 8888)) {
        rt.LogPc(51, 1);
        rt.Assume(lowlevel::SvUgt(a, SymValue(2, 8)));
        rt.LogPc(52, 1);
    } else {
        rt.LogPc(53, 1);
    }
    rt.LogPc(60, 2);
    if (rt.Branch(lowlevel::SvUlt(lowlevel::SvXor(a, c), b), 9999)) {
        rt.LogPc(61, 1);
    } else {
        rt.LogPc(62, 1);
    }
    return {};
}

/// Digests everything the determinism contract pins: per-test HL
/// fingerprints, statuses, lengths and complete inputs, plus the
/// exploration-shape stats. Timeline and wall-clock stats are excluded.
uint64_t
SessionDigest(StrategyKind strategy, uint64_t seed)
{
    Engine::Options options;
    options.strategy = strategy;
    options.seed = seed;
    options.max_runs = 64;
    options.max_seconds = 60.0;
    options.collect_timeline = false;
    Engine engine(options);
    const std::vector<TestCase> tests = engine.Explore(GoldenGuest);
    uint64_t digest = 0xcbf29ce484222325ull;
    for (const TestCase& test : tests) {
        digest = HashCombine(digest, test.hl_path_fingerprint);
        digest = HashCombine(digest, static_cast<uint64_t>(test.status));
        digest = HashCombine(digest, test.hl_length);
        for (const auto& [var, value] : test.inputs.entries()) {
            digest = HashCombine(digest, var);
            digest = HashCombine(digest, value);
        }
    }
    const EngineStats& stats = engine.stats();
    digest = HashCombine(digest, stats.ll_paths);
    digest = HashCombine(digest, stats.hl_paths);
    digest = HashCombine(digest, stats.states_registered);
    digest = HashCombine(digest, stats.infeasible_states);
    digest = HashCombine(digest, stats.assume_retries);
    return digest;
}

// Golden digests of the serial engine, captured before the exploration
// loop was refactored and re-pinned once when the incremental SAT session
// began loading only each query's cone (its SAT models, and so the test
// inputs, changed). The engine must keep reproducing these bit-for-bit.
TEST(Engine, SerialPathBitIdenticalToPreRefactorEngine)
{
    const struct {
        StrategyKind strategy;
        uint64_t seed;
        uint64_t digest;
    } kGolden[] = {
        {StrategyKind::kRandom, 1ull, 0x02c3a1dddafae224ull},
        {StrategyKind::kRandom, 42ull, 0xe2ab20ccbb903bc3ull},
        {StrategyKind::kDfs, 1ull, 0x46c99a2706a21f20ull},
        {StrategyKind::kDfs, 42ull, 0x46c99a2706a21f20ull},
        {StrategyKind::kBfs, 1ull, 0xdd9fafb533a98a91ull},
        {StrategyKind::kBfs, 42ull, 0xdd9fafb533a98a91ull},
        {StrategyKind::kCupaPath, 1ull, 0x2144e41a3df6cce4ull},
        {StrategyKind::kCupaPath, 42ull, 0x77148121585caa0aull},
        {StrategyKind::kCupaCoverage, 1ull, 0x23ca780a3f85a643ull},
        {StrategyKind::kCupaCoverage, 42ull, 0x8b2b5e89b44a7b97ull},
    };
    for (const auto& golden : kGolden) {
        EXPECT_EQ(SessionDigest(golden.strategy, golden.seed), golden.digest)
            << StrategyKindName(golden.strategy) << " seed " << golden.seed;
    }
}

}  // namespace
}  // namespace chef
