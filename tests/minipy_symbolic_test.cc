/// \file
/// End-to-end symbolic execution of MiniPy guests through the CHEF engine:
/// the paper's Figure 2 examples, soundness-of-replay, and the build
/// optimization effects at guest level.

#include <gtest/gtest.h>

#include "fork_sites.h"
#include "workloads/py_harness.h"

namespace chef::workloads {
namespace {

struct ExploreResult {
    EngineStats stats;
    std::vector<TestCase> tests;
};

ExploreResult
Explore(const std::string& source, const PySymbolicTest& spec,
        interp::InterpBuildOptions build =
            interp::InterpBuildOptions::FullyOptimized(),
        Engine::Options engine_options = {})
{
    auto program = CompilePyOrDie(source);
    Engine engine(engine_options);
    ExploreResult result;
    result.tests =
        engine.Explore(MakePyRunFn(program, spec, build));
    result.stats = engine.stats();
    return result;
}

// The paper's Figure 2 validateEmail example.
const char* kValidateEmail = R"(class InvalidEmailError(Exception):
    pass

def validateEmail(email):
    at_sign_pos = email.find('@')
    if at_sign_pos < 3:
        raise InvalidEmailError('bad email')
    return True
)";

TEST(PySymbolic, ValidateEmailEnumeratesFindOutcomes)
{
    PySymbolicTest spec;
    spec.source = kValidateEmail;
    spec.entry = "validateEmail";
    spec.args = {SymbolicArg::Str("email", 5)};
    Engine::Options options;
    options.max_runs = 200;
    const ExploreResult result =
        Explore(kValidateEmail, spec,
                interp::InterpBuildOptions::FullyOptimized(), options);

    // find over 5 symbolic bytes: positions 0..4 or not-found = 6
    // low-level outcomes; high-level: raise vs return = 2 paths.
    EXPECT_EQ(result.stats.ll_paths, 6u);
    EXPECT_EQ(result.stats.hl_paths, 2u);

    // Both guest outcomes appear, and the accepting inputs have '@' at
    // position >= 3.
    bool accepted = false;
    bool rejected = false;
    for (const TestCase& test : result.tests) {
        std::string email;
        for (uint32_t var = 1; var <= 5; ++var) {
            email.push_back(
                static_cast<char>(test.inputs.Get(var)));
        }
        if (test.outcome_kind == "ok") {
            accepted = true;
            EXPECT_GE(email.find('@'), 3u);
            EXPECT_NE(email.find('@'), std::string::npos);
        } else {
            rejected = true;
            EXPECT_EQ(test.outcome_detail, "InvalidEmailError");
        }
    }
    EXPECT_TRUE(accepted);
    EXPECT_TRUE(rejected);
}

TEST(PySymbolic, ReplayAgreesWithSymbolicOutcome)
{
    // Soundness: replaying every generated test case concretely on the
    // vanilla build reproduces the predicted guest outcome.
    PySymbolicTest spec;
    spec.source = kValidateEmail;
    spec.entry = "validateEmail";
    spec.args = {SymbolicArg::Str("email", 5)};
    auto program = CompilePyOrDie(kValidateEmail);
    Engine::Options options;
    options.max_runs = 100;
    Engine engine(options);
    const auto tests = engine.Explore(MakePyRunFn(
        program, spec, interp::InterpBuildOptions::FullyOptimized()));
    ASSERT_FALSE(tests.empty());
    for (const TestCase& test : tests) {
        const PyReplayResult replay =
            ReplayPy(program, spec, test.inputs);
        if (test.outcome_kind == "ok") {
            EXPECT_TRUE(replay.ok);
        } else {
            EXPECT_FALSE(replay.ok);
            EXPECT_EQ(replay.exception_type, test.outcome_detail);
        }
        EXPECT_FALSE(replay.covered_lines.empty());
    }
}

TEST(PySymbolic, AverageHasOneHighLevelPathManyLowLevel)
{
    // Figure 2's average(): a single high-level path, multiple low-level
    // paths from bignum digit normalization of the symbolic sum.
    const char* source = R"(def average(x, y):
    return (x + y) // 2
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "average";
    spec.args = {SymbolicArg::Int("x", 10), SymbolicArg::Int("y", 20)};
    Engine::Options options;
    options.max_runs = 200;
    const ExploreResult result = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    EXPECT_EQ(result.stats.hl_paths, 1u);
    EXPECT_GT(result.stats.ll_paths, 3u);
}

TEST(PySymbolic, FindsGuardedException)
{
    const char* source = R"(def parse(cmd):
    if cmd.startswith('GET'):
        return 1
    if cmd.startswith('PUT'):
        raise ValueError('writes unsupported')
    return 0
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "parse";
    spec.args = {SymbolicArg::Str("cmd", 4)};
    Engine::Options options;
    options.max_runs = 300;
    const ExploreResult result = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    bool found_value_error = false;
    for (const TestCase& test : result.tests) {
        if (test.outcome_detail == "ValueError") {
            found_value_error = true;
            std::string cmd;
            for (uint32_t var = 1; var <= 4; ++var) {
                cmd.push_back(static_cast<char>(test.inputs.Get(var)));
            }
            EXPECT_EQ(cmd.substr(0, 3), "PUT");
        }
    }
    EXPECT_TRUE(found_value_error);
}

TEST(PySymbolic, HangDetectionOnGuestInfiniteLoop)
{
    // An input-triggered infinite loop (the Lua JSON bug pattern).
    const char* source = R"(def scan(s):
    i = 0
    while i < len(s):
        if s[i] == 'x':
            continue
        i = i + 1
    return i
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "scan";
    spec.args = {SymbolicArg::Str("s", 3)};
    Engine::Options options;
    options.max_runs = 60;
    options.max_steps_per_run = 30'000;
    const ExploreResult result = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    EXPECT_GE(result.stats.hangs, 1u);
    bool hang_has_x = false;
    for (const TestCase& test : result.tests) {
        if (test.outcome_kind == "hang") {
            for (uint32_t var = 1; var <= 3; ++var) {
                if (static_cast<char>(test.inputs.Get(var)) == 'x') {
                    hang_has_x = true;
                }
            }
        }
    }
    EXPECT_TRUE(hang_has_x);
}

TEST(PySymbolic, SymbolicIntControlFlow)
{
    const char* source = R"(def classify(n):
    if n < 0:
        return 'negative'
    if n == 0:
        return 'zero'
    if n > 1000:
        return 'big'
    return 'small'
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "classify";
    spec.args = {SymbolicArg::Int("n", 5)};
    Engine::Options options;
    options.max_runs = 200;
    const ExploreResult result = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    EXPECT_EQ(result.stats.hl_paths, 4u);
}

TEST(PySymbolic, DictWithSymbolicKeysVanillaVsOptimized)
{
    // The Figure-12 microcosm: inserting a symbolic string key into a
    // dict. The vanilla build forks on hashing + interning + bucket
    // resolution; the optimized build stays lean.
    const char* source = R"(def store(key):
    table = {}
    table[key] = 1
    return table.get(key)
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "store";
    spec.args = {SymbolicArg::Str("key", 3, "abc")};

    Engine::Options options;
    options.max_runs = 150;
    options.max_seconds = 20.0;
    const ExploreResult optimized = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    const ExploreResult vanilla = Explore(
        source, spec, interp::InterpBuildOptions::Vanilla(), options);

    // Same guest behaviour; wildly different low-level path counts.
    EXPECT_LE(optimized.stats.ll_paths, 4u);
    EXPECT_GT(vanilla.stats.ll_paths, optimized.stats.ll_paths);
}

TEST(PySymbolic, StringEqualityFastPathEffect)
{
    const char* source = R"(def check(pw):
    if pw == 'se':
        return 'yes'
    return 'no'
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "check";
    spec.args = {SymbolicArg::Str("pw", 2)};

    Engine::Options options;
    options.max_runs = 100;
    // Vanilla short-circuit comparison: one LL path per mismatch position
    // plus the match: 3. Optimized: match/mismatch only: 2.
    const ExploreResult vanilla =
        Explore(source, spec, interp::InterpBuildOptions::Vanilla(),
                options);
    const ExploreResult optimized = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    EXPECT_EQ(optimized.stats.ll_paths, 2u);
    EXPECT_GT(vanilla.stats.ll_paths, 2u);
    // Both discover the same 2 high-level paths, including the match.
    EXPECT_EQ(optimized.stats.hl_paths, 2u);
    EXPECT_GE(vanilla.stats.hl_paths, 2u);
}

TEST(PySymbolic, CupaBeatsRandomOnSkewedGuest)
{
    // A guest mixing a fork-heavy statement (find over a long buffer)
    // with a single plain comparison: path-optimized CUPA should reach
    // both high-level outcomes of the comparison at least as fast as the
    // skew-prone baseline. This is the qualitative Figure 8 effect; the
    // quantitative version is bench_fig8_paths.
    const char* source = R"(def work(s, n):
    junk = s.find('@')
    if n == 123456:
        return 'rare'
    return junk
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "work";
    spec.args = {SymbolicArg::Str("s", 8), SymbolicArg::Int("n", 0)};

    auto hl_paths_with = [&](StrategyKind kind) {
        auto program = CompilePyOrDie(source);
        Engine::Options options;
        options.max_runs = 6;  // Tight budget forces prioritization.
        options.strategy = kind;
        options.seed = 7;
        Engine engine(options);
        engine.Explore(MakePyRunFn(
            program, spec, interp::InterpBuildOptions::FullyOptimized()));
        return engine.stats().hl_paths;
    };
    EXPECT_GE(hl_paths_with(StrategyKind::kCupaPath), 2u);
}

TEST(PySymbolic, ExceptionsInGuestHandledPathsExplored)
{
    const char* source = R"(def safe_int(s):
    try:
        return int(s)
    except ValueError:
        return -1
)";
    PySymbolicTest spec;
    spec.source = source;
    spec.entry = "safe_int";
    spec.args = {SymbolicArg::Str("s", 2, "12")};
    Engine::Options options;
    options.max_runs = 400;
    const ExploreResult result = Explore(
        source, spec, interp::InterpBuildOptions::FullyOptimized(),
        options);
    // All outcomes are "ok" (exception handled in-guest), and both the
    // parse-success and parse-failure HL paths are covered.
    EXPECT_GE(result.stats.hl_paths, 2u);
    for (const TestCase& test : result.tests) {
        EXPECT_NE(test.outcome_kind, "exception");
    }
}

// A dict that starts empty and is probed, filled past its first resize
// and erased from with a symbolic key. The dict allocates its buckets on
// the first insertion; hashing and probing must fork exactly as they did
// against eight allocated empty buckets, so the counts below are pinned
// to the values of the eagerly allocating dict.
const char* kEmptyDictGuest = R"(def probe(k):
    d = {}
    n = 0
    if d.get(k, -1) == -1:
        n = n + 1
    d[k] = 1
    for i in range(10):
        d[i + 100] = i
    if d.get(k, -1) == 1:
        n = n + 2
    d.pop(k, None)
    if d.get(k, -1) == -1:
        n = n + 4
    return n
)";

TEST(PySymbolic, EmptyDictForksAsBefore)
{
    PySymbolicTest spec;
    spec.source = kEmptyDictGuest;
    spec.entry = "probe";
    spec.args = {SymbolicArg::Int("k", 3)};
    Engine::Options options;
    options.max_runs = 2000;
    options.max_seconds = 60.0;
    const auto program = CompilePyOrDie(kEmptyDictGuest);
    struct Pinned {
        interp::InterpBuildOptions build;
        uint64_t states_registered, ll_paths, hl_paths;
        std::vector<int> pattern;
    };
    const Pinned pinned[] = {
        // Every fork of the default run is at one site.
        {interp::InterpBuildOptions::FullyOptimized(), 155, 11, 2,
         std::vector<int>(20, 0)},
        {interp::InterpBuildOptions::Vanilla(), 3110, 42, 2,
         std::vector<int>(36, 0)},
    };
    for (const Pinned& pin : pinned) {
        Engine engine(options);
        engine.Explore(MakePyRunFn(program, spec, pin.build));
        const EngineStats& stats = engine.stats();
        EXPECT_LT(stats.ll_paths, options.max_runs);
        EXPECT_FALSE(stats.stopped);
        EXPECT_EQ(stats.states_registered, pin.states_registered);
        EXPECT_EQ(stats.ll_paths, pin.ll_paths);
        EXPECT_EQ(stats.hl_paths, pin.hl_paths);
        EXPECT_EQ(checks::ForkSitePattern(
                      MakePyRunFn(program, spec, pin.build)),
                  pin.pattern);
    }
}

}  // namespace
}  // namespace chef::workloads
