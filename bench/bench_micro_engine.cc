/// \file
/// Supporting microbenchmarks: end-to-end engine throughput (concolic
/// iterations per second) on guest kernels, comparing state selection
/// strategies and interpreter builds, plus the execution tree's cost of
/// forking an alternate state deep in a run.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "lowlevel/exec_tree.h"
#include "workloads/py_harness.h"

namespace chef::bench {
namespace {

const char* kFindGuest = R"(def probe(s):
    pos = s.find('@')
    if pos < 3:
        return 0
    return 1
)";

void
BM_ExploreFindGuest(benchmark::State& state)
{
    const StrategyKind strategy =
        static_cast<StrategyKind>(state.range(0));
    auto program = workloads::CompilePyOrDie(kFindGuest);
    workloads::PySymbolicTest spec;
    spec.source = kFindGuest;
    spec.entry = "probe";
    spec.args = {workloads::SymbolicArg::Str("s", 6)};
    uint64_t paths = 0;
    for (auto _ : state) {
        Engine::Options options;
        options.strategy = strategy;
        options.max_runs = 60;
        options.collect_timeline = false;
        Engine engine(options);
        engine.Explore(workloads::MakePyRunFn(
            program, spec, interp::InterpBuildOptions::FullyOptimized()));
        paths += engine.stats().ll_paths;
    }
    state.counters["ll_paths_per_iter"] = benchmark::Counter(
        static_cast<double>(paths) /
        static_cast<double>(state.iterations()));
    state.SetLabel(StrategyKindName(strategy));
}
BENCHMARK(BM_ExploreFindGuest)
    ->Arg(static_cast<int>(chef::StrategyKind::kRandom))
    ->Arg(static_cast<int>(chef::StrategyKind::kCupaPath))
    ->Arg(static_cast<int>(chef::StrategyKind::kCupaCoverage));

const char* kDictGuest = R"(def probe(key):
    table = {}
    table[key] = 1
    return table.get(key)
)";

void
BM_ExploreDictGuest(benchmark::State& state)
{
    const bool optimized = state.range(0) != 0;
    auto program = workloads::CompilePyOrDie(kDictGuest);
    workloads::PySymbolicTest spec;
    spec.source = kDictGuest;
    spec.entry = "probe";
    spec.args = {workloads::SymbolicArg::Str("key", 2, "ab")};
    for (auto _ : state) {
        Engine::Options options;
        options.max_runs = 40;
        options.max_seconds = 10.0;
        options.collect_timeline = false;
        Engine engine(options);
        engine.Explore(workloads::MakePyRunFn(
            program, spec,
            optimized ? interp::InterpBuildOptions::FullyOptimized()
                      : interp::InterpBuildOptions::Vanilla()));
        benchmark::DoNotOptimize(engine.stats().ll_paths);
    }
    state.SetLabel(optimized ? "optimized build" : "vanilla build");
}
BENCHMARK(BM_ExploreDictGuest)->Arg(1)->Arg(0);

void
BM_ConcreteInterpreterRun(benchmark::State& state)
{
    // Cost of one concrete interpreter run (the concolic re-execution
    // unit the engine pays per path).
    auto program = workloads::CompilePyOrDie(kFindGuest);
    workloads::PySymbolicTest spec;
    spec.source = kFindGuest;
    spec.entry = "probe";
    spec.args = {workloads::SymbolicArg::Str("s", 6, "ab@cde")};
    for (auto _ : state) {
        const auto replay =
            workloads::ReplayPy(program, spec, solver::Assignment());
        benchmark::DoNotOptimize(replay.ok);
    }
}
BENCHMARK(BM_ConcreteInterpreterRun);

void
BM_RegisterAlternatesAtDepth(benchmark::State& state)
{
    // Per-alternate cost of ExecutionTree::Advance once a run is
    // state.range(0) branches deep: each timed Advance meets a new branch
    // and registers the alternate for its other direction. Building the
    // prefix and tearing the tree down are untimed.
    constexpr int kAlternates = 64;
    const int64_t depth = state.range(0);
    const auto x = solver::MakeVar(1, 32);
    const auto taken = solver::MakeUlt(x, solver::MakeConst(1000, 32));
    const auto negated = solver::MakeBoolNot(taken);
    std::unique_ptr<lowlevel::ExecutionTree> tree;
    lowlevel::ExecutionTree::Cursor cursor;
    for (auto _ : state) {
        state.PauseTiming();
        // Replacing the tree drops the last iteration's alternates, and
        // BeginRun then drops its chain, both untimed.
        tree = std::make_unique<lowlevel::ExecutionTree>();
        tree->BeginRun(cursor);
        uint64_t llpc = 1;
        for (int64_t i = 0; i < depth; ++i, ++llpc) {
            tree->Advance(cursor, llpc, true, taken, negated,
                          lowlevel::HlPosition{});
        }
        state.ResumeTiming();
        for (int i = 0; i < kAlternates; ++i, ++llpc) {
            benchmark::DoNotOptimize(
                tree->Advance(cursor, llpc, true, taken, negated,
                              lowlevel::HlPosition{}));
        }
    }
    state.counters["s_per_alternate"] = benchmark::Counter(
        kAlternates, benchmark::Counter::kIsIterationInvariantRate |
                         benchmark::Counter::kInvert);
}
BENCHMARK(BM_RegisterAlternatesAtDepth)->Arg(64)->Arg(512)->Arg(4096);

}  // namespace
}  // namespace chef::bench

BENCHMARK_MAIN();
